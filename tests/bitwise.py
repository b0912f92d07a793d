"""The bitwise oracle the tests share."""


def same_bits(a, b) -> bool:
    """True when two arrays have one shape and identical bytes."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()
