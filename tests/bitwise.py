"""The bitwise oracle and the attention-cache spy the tests share."""

import oblix.denoiser


def same_bits(a, b) -> bool:
    """True when two arrays have one shape and identical bytes."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class WriteLog(dict):
    """A stand-in for ``AccelState.cached_attention`` that logs each write.

    Every write appends (step, site, output) to ``log``.  Set ``step``
    before each forward, or let `follow_steps` set it.
    """

    def __init__(self):
        super().__init__()
        self.step, self.log = None, []

    def __setitem__(self, site, out):
        self.log.append((self.step, site, out))
        super().__setitem__(site, out)


def follow_steps(monkeypatch):
    """Give each WriteLog the iteration of every `unet_forward` that runs."""
    real = oblix.denoiser.unet_forward

    def forward(latents, texts, t, w, accel=None):
        if accel is not None and isinstance(accel.cached_attention, WriteLog):
            accel.cached_attention.step = t
        return real(latents, texts, t, w, accel)

    monkeypatch.setattr(oblix.denoiser, "unet_forward", forward)


def spy_states(monkeypatch) -> list:
    """Record every AccelState a run makes, each with a WriteLog cache.

    `oblix.denoiser.run_denoise_steps` makes the state of a run whose
    gates fire, so this is how a test reaches that state.
    """
    made = []
    real = oblix.denoiser.AccelState

    def make(cfg):
        state = real(cfg)
        state.cached_attention = WriteLog()
        made.append(state)
        return state

    monkeypatch.setattr(oblix.denoiser, "AccelState", make)
    return made
