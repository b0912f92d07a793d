"""The bitwise oracle and the attention and cache spies the tests share."""

import oblix.accel
import oblix.denoiser


def same_bits(a, b) -> bool:
    """True when two arrays have one shape and identical bytes."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class WriteLog(dict):
    """A stand-in for ``AccelState.cached_attention`` that logs each write.

    Every write appends (step, site, output) to ``log``.  Set ``step``
    before each forward, or let `spy_attend` set it.
    """

    def __init__(self):
        super().__init__()
        self.step, self.log = None, []

    def __setitem__(self, site, out):
        self.log.append((self.step, site, out))
        super().__setitem__(site, out)


def spy_attend(monkeypatch) -> list:
    """Log (iteration, site, output) of every `oblix.accel.attend` call.

    A forward attends at each site it recomputes, whether or not its state
    keeps the output, so the log holds every recomputed (step, site).  Each
    WriteLog cache also gets the iteration of every `unet_forward`.
    """
    log, now = [], [None]
    real_forward, real_attend = oblix.denoiser.unet_forward, oblix.accel.attend

    def forward(latents, texts, t, *args):
        now[0] = t
        state = args[2] if len(args) > 2 else None
        if state is not None and isinstance(state.cached_attention, WriteLog):
            state.cached_attention.step = t
        return real_forward(latents, texts, t, *args)

    def attend(q, kv, params, site, *args):
        out = real_attend(q, kv, params, site, *args)
        log.append((now[0], site, out))
        return out

    monkeypatch.setattr(oblix.denoiser, "unet_forward", forward)
    monkeypatch.setattr(oblix.accel, "attend", attend)
    return log


def spy_states(monkeypatch, make=None) -> list:
    """Record every AccelState a run makes, each with a WriteLog cache.

    `oblix.denoiser.run_denoise_steps` makes the state of a run whose plan
    keeps an output for a later step, so this is how a test reaches that
    state.  ``make`` builds each state in place of `AccelState`.
    """
    made = []
    make = make or oblix.denoiser.AccelState

    def spy():
        state = make()
        state.cached_attention = WriteLog()
        made.append(state)
        return state

    monkeypatch.setattr(oblix.denoiser, "AccelState", spy)
    return made
