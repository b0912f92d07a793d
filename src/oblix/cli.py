"""Operator surface: generate, serve, client, bench, dataset, attest.

Configuration is a flat INI file; every key mirrors a field name used by
the modules it configures.  ``OBLIX_LOG`` selects the log level.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import logging
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .accel import AccelConfig, check_run, never
from .denoiser import ModelConfig, ModelWeights
from .errors import ConfigError, InputError, OblixError
from .oblivious import (
    AttributeLexicon,
    DEFAULT_TEMPLATES,
    default_lexicon,
    generate_corpus,
    load_templates,
    write_corpus,
    read_corpus,
)
from .protocol import (
    ChannelModel,
    Daemon,
    ScheduleParams,
    Server,
    SessionConfig,
    SimulatedTransport,
    SocketTransport,
    client_run_session,
)
from .security import (
    LEAKY_ADVERSARY,
    check_indistinguishability,
    distinguisher_experiment,
)

log = logging.getLogger("oblix.cli")

BENCH_PROMPTS = {
    1: "a quiet mountain lake at dawn",
    2: "portrait of a male in a garden",
    6: "portrait of a young male in a garden",
    30: "portrait of a young african male in a garden",
}


def _drawn(source: ModelWeights | tuple[ModelConfig, int]) -> ModelWeights:
    """A role's weights: loaded from a file, or drawn from (config, seed)."""
    if isinstance(source, ModelWeights):
        return source
    return ModelWeights.build(*source)


@dataclass
class RunConfig:
    model_id: str
    model: ModelConfig
    cloud: ModelWeights | tuple[ModelConfig, int]
    device: ModelWeights | tuple[ModelConfig, int]
    session: SessionConfig
    lexicon: AttributeLexicon
    templates: tuple[str, ...]
    host: str = "127.0.0.1"
    port: int = 7410
    out_path: str = "oblix_out.ppm"
    report_path: str = "oblix_report.jsonl"

    # each drawn once, on its first read
    cloud_weights = cached_property(lambda self: _drawn(self.cloud))
    device_weights = cached_property(lambda self: _drawn(self.device))


def _typed(sec: configparser.SectionProxy, kinds: dict[str, type]) -> dict:
    """The keys of ``kinds`` that ``sec`` sets, each converted to its type.

    A key left out or set empty is absent from the result, so the dataclass
    it feeds keeps its own default; a value that does not convert is a
    ConfigError naming its section and key.
    """
    getters = {int: sec.getint, float: sec.getfloat, bool: sec.getboolean,
               str: sec.get}
    out = {}
    for key, kind in kinds.items():
        if not sec.get(key):
            continue
        try:
            out[key] = getters[kind](key)
        except ValueError:
            raise ConfigError(f"[{sec.name}] {key} = {sec[key]!r} is not a "
                              f"valid {kind.__name__}") from None
    return out


def _weights_from(section, role: str,
                  model_cfg: ModelConfig) -> ModelWeights | tuple:
    path_key, seed_key = f"{role}_path", f"{role}_seed"
    if section.get(path_key):
        path = section[path_key]
        if not os.path.exists(path):
            raise ConfigError(f"{path_key} points at missing file {path!r}")
        return ModelWeights.load(path)
    seed = _typed(section, {seed_key: int}).get(seed_key)
    if seed is None:
        raise ConfigError(f"[model] needs {path_key} or {seed_key}")
    return model_cfg, seed


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Parse and fully validate a run config; all referenced files must
    exist and parse before any computation starts.  A key left out keeps
    its dataclass's default.  A weights file is loaded here; a seeded model
    is drawn on the first read of its ``RunConfig`` attribute."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(dict.fromkeys(
        ("model", "schedule", "accel", "channel", "run", "transport"), {}))
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} does not parse: {exc}") \
            from None

    model_sec = parser["model"]
    model_cfg = ModelConfig(**_typed(model_sec, {
        "channels": int, "res": int, "d_text": int, "width": int,
        "token_capacity": int, "heads": int}))
    cloud = _weights_from(model_sec, "cloud", model_cfg)
    device = _weights_from(model_sec, "device", model_cfg)
    # the device finishes the cloud's latents; width, d_text and token
    # capacity may differ, as with a smaller device model
    c, d = (s.cfg if isinstance(s, ModelWeights) else s[0]
            for s in (cloud, device))
    if (c.channels, c.res) != (d.channels, d.res):
        raise ConfigError(
            f"cloud weights make latents of {c.channels} channels at res "
            f"{c.res}, device weights take {d.channels} at res {d.res}")

    sched_sec = parser["schedule"]
    schedule = ScheduleParams(**_typed(sched_sec, {
        "steps": int, "beta_start": float, "beta_end": float,
        "spacing": str}))

    accel_keys = _typed(parser["accel"], {
        "switch_point": int, "cache_point": int, "skip_point": int,
        "reuse": bool, "refresh_period": int, "pivot_index": int})
    off = never(schedule.steps)
    accel = AccelConfig(**{"cache_point": off, "skip_point": off, **accel_keys})

    try:
        channel = ChannelModel(**_typed(
            parser["channel"], {"bandwidth_bps": float, "rtt_s": float}))
    except ConfigError as exc:
        raise ConfigError(f"[channel] {exc}") from None

    run_sec = parser["run"]
    session_keys = {**_typed(sched_sec, {"device_steps": int, "dt_shift": int}),
                    **_typed(run_sec, {"seed": int}),
                    **{f"model_{k}": v for k, v in
                       _typed(model_sec, {"id": str}).items()}}
    if seed_override is not None:
        session_keys["seed"] = seed_override
    session = SessionConfig(accel=accel, cloud_schedule=schedule,
                            channel=channel, **session_keys)

    lex_path = run_sec.get("lexicon")
    lexicon = AttributeLexicon.load(lex_path) if lex_path else default_lexicon()
    tpl_path = run_sec.get("templates")
    templates = load_templates(tpl_path) if tpl_path else DEFAULT_TEMPLATES

    return RunConfig(
        model_id=session.model_id,
        model=model_cfg,
        cloud=cloud,
        device=device,
        session=session,
        lexicon=lexicon,
        templates=templates,
        **_typed(parser["transport"], {"host": str, "port": int}),
        **{f"{k}_path": v for k, v in
           _typed(run_sec, {"out": str, "report": str}).items()},
    )


def write_ppm(image: np.ndarray, path: str) -> None:
    """Binary portable pixmap from a (3, H, W) image in [0, 1]."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ConfigError(f"image must be (3, H, W), got {image.shape}")
    _, h, w = image.shape
    pixels = np.clip(image * 255.0 + 0.5, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pixels.transpose(1, 2, 0).tobytes())


def _run_and_report(rc: RunConfig, prompt: str, transport,
                    out_path: str | None) -> int:
    result = client_run_session(prompt, rc.session, transport,
                                rc.device_weights, rc.lexicon)
    out = out_path or rc.out_path
    write_ppm(result.image, out)
    with open(rc.report_path, "w", encoding="utf-8") as f:
        f.write("\n".join(result.report_lines()) + "\n")
    print(f"candidates N={result.candidates.size}")
    for note in result.notes:
        print(f"note: {note}")
    print(result.summary_table())
    print(f"image -> {out}")
    print(f"report -> {rc.report_path}")
    return 0


def cmd_generate(args) -> int:
    rc = load_run_config(args.config, args.seed)
    transport = SimulatedTransport(Server({rc.model_id: rc.cloud_weights}))
    return _run_and_report(rc, args.prompt, transport, args.out)


def cmd_client(args) -> int:
    rc = load_run_config(args.config, args.seed)
    transport = SocketTransport(rc.host if args.host is None else args.host,
                                rc.port if args.port is None else args.port)
    try:
        return _run_and_report(rc, args.prompt, transport, args.out)
    finally:
        transport.close()


def cmd_serve(args) -> int:
    rc = load_run_config(args.config)
    daemon = Daemon((rc.host, rc.port), Server({rc.model_id: rc.cloud_weights}))
    host, port = daemon.server_address
    print(f"serving model {rc.model_id!r} on {host}:{port}")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.shutdown()
    return 0


# grid axis -> value type; reuse takes configparser's boolean words
_GRID_AXES = {"k": int, "r": int, "s": int, "N": int, "reuse": bool}


def _grid_value(axis: str, text: str):
    """One grid value as its axis's type; a ConfigError names the axis."""
    kind = _GRID_AXES[axis]
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        return int(text)
    except (KeyError, ValueError):
        raise ConfigError(f"grid axis {axis} value {text!r} is not a valid "
                          f"{kind.__name__}") from None


def _parse_grid(grid: str) -> dict[str, list]:
    """Typed axes of a grid string like "k=0,5,10 N=1,2,6 reuse=0,1 r=4 s=6".

    Each axis appears at most once, and every value must convert.
    """
    axes: dict[str, list] = {}
    for part in grid.split():
        key, _, values = part.partition("=")
        if key not in _GRID_AXES:
            raise ConfigError(f"unknown grid axis {key!r}; choose from "
                              f"{sorted(_GRID_AXES)}")
        if key in axes:
            raise ConfigError(f"grid axis {key} repeats")
        axes[key] = [_grid_value(key, v) for v in values.split(",") if v]
        if not axes[key]:
            raise ConfigError(f"grid axis {part!r} has no values")
    return axes


def cmd_bench(args) -> int:
    rc = load_run_config(args.config)
    axes = _parse_grid(args.grid)
    total_steps = rc.session.cloud_schedule.steps
    off = never(total_steps)
    base = rc.session.accel
    grid = itertools.product(*(axes.get(axis, [default]) for axis, default in (
        ("N", 2), ("k", base.switch_point), ("r", base.cache_point),
        ("s", base.skip_point), ("reuse", base.reuse))))
    points = []  # every grid point's session is made before any runs
    for n, k, r, s, reuse in grid:
        if n not in BENCH_PROMPTS:
            raise ConfigError(
                f"no bench prompt for N={n}; choose from "
                f"{sorted(BENCH_PROMPTS)}")
        accel = replace(base, switch_point=k, cache_point=min(r, off),
                        skip_point=min(s, off), reuse=reuse)
        check_run(accel, total_steps, n)  # n is the prompt's class size
        points.append(({"k": k, "r": r, "s": s, "reuse": reuse, "N": n},
                       replace(rc.session, accel=accel)))

    transport = SimulatedTransport(Server({rc.model_id: rc.cloud_weights}))
    records = []
    for point, session in points:
        result = client_run_session(BENCH_PROMPTS[point["N"]], session,
                                    transport, rc.device_weights, rc.lexicon)
        records.append({
            **point,
            "server_flops": result.server_flops,
            "device_flops": result.device_counter.total,
            "bytes_sent": result.bytes_sent,
            "bytes_received": result.bytes_received,
            "modeled_transfer_s": round(result.modeled_transfer_s, 6),
        })
    out = args.out or "oblix_bench.jsonl"
    with open(out, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"{len(records)} grid points -> {out}")
    return 0


def cmd_dataset(args) -> int:
    lexicon = AttributeLexicon.load(args.lexicon) if args.lexicon \
        else default_lexicon()
    templates = load_templates(args.templates) if args.templates \
        else DEFAULT_TEMPLATES
    records = generate_corpus(templates, lexicon, args.count, args.seed)
    write_corpus(records, args.out)
    print(f"{len(records)} prompts -> {args.out}")
    return 0


def cmd_attest(args) -> int:
    rc = load_run_config(args.config)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    if args.prompt:
        prompts = [args.prompt]
    elif args.corpus:
        prompts = [rec["prompt"] for rec in read_corpus(args.corpus)]
        if not prompts:
            raise InputError(f"corpus {args.corpus!r} holds no prompts")
    else:
        prompts = [rec["prompt"]
                   for rec in generate_corpus(rc.templates, rc.lexicon)]

    failures = 0
    seeds = [rc.session.seed + i for i in range(args.seeds)]
    for prompt in prompts:
        for seed in seeds:
            verdict = check_indistinguishability(prompt, rc.lexicon, seed,
                                                 rc.session)
            if not verdict.passed:
                failures += 1
                print(f"FAIL {prompt!r} seed={seed}: {verdict.describe()}")
    print(f"transcript equality: {len(prompts)} prompts x {len(seeds)} seeds, "
          f"{failures} failures")

    control = check_indistinguishability(prompts[0], rc.lexicon, seeds[0],
                                         rc.session, order_real_first=True)
    if control.class_size > 1 and control.passed:
        failures += 1
        print("FAIL negative control: leaky ordering was not detected")
    else:
        print(f"negative control: {control.describe()} (expected FAIL)")

    if args.trials:
        for vary, label in ((("gender",), "N=2"),
                            (("gender", "age"), "N=6")):
            verdict = distinguisher_experiment(
                rc.lexicon, rc.session, args.trials, adversary="hash",
                templates=rc.templates, vary=vary)
            print(f"distinguisher {label}: {verdict.describe()}")
            failures += 0 if verdict.passed else 1
        sanity = distinguisher_experiment(
            rc.lexicon, rc.session, max(args.trials, 100),
            adversary=LEAKY_ADVERSARY, templates=rc.templates,
            vary=("gender",))
        print(f"leaky control: {sanity.describe()} (must be accuracy 1.0)")
        failures += 0 if sanity.passed else 1

    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblix",
        description="oblivious cloud-device hybrid image generation")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="end-to-end generation")
    gen.add_argument("--config", required=True)
    gen.add_argument("--prompt", required=True)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    srv = sub.add_parser("serve", help="run the cloud daemon")
    srv.add_argument("--config", required=True)
    srv.set_defaults(func=cmd_serve)

    cli = sub.add_parser("client", help="generate against a remote daemon")
    cli.add_argument("--config", required=True)
    cli.add_argument("--prompt", required=True)
    cli.add_argument("--seed", type=int)
    cli.add_argument("--host")
    cli.add_argument("--port", type=int)
    cli.add_argument("--out")
    cli.set_defaults(func=cmd_client)

    ben = sub.add_parser("bench", help="cost sweep over a parameter grid")
    ben.add_argument("--config", required=True)
    ben.add_argument("--grid", required=True,
                     help='e.g. "k=0,5,10 N=1,2,6 reuse=0,1"')
    ben.add_argument("--out")
    ben.set_defaults(func=cmd_bench)

    dat = sub.add_parser("dataset", help="emit a candidate-prompt corpus")
    dat.add_argument("--templates")
    dat.add_argument("--lexicon")
    dat.add_argument("--count", type=int, default=None)
    dat.add_argument("--seed", type=int, default=0)
    dat.add_argument("--out", required=True)
    dat.set_defaults(func=cmd_dataset)

    att = sub.add_parser("attest", help="obliviousness attestation")
    att.add_argument("--config", required=True)
    att.add_argument("--prompt")
    att.add_argument("--corpus")
    att.add_argument("--seeds", type=int, default=5)
    att.add_argument("--trials", type=int, default=0)
    att.set_defaults(func=cmd_attest)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("OBLIX_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OblixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
