"""Helpers that only the tests call."""

from endotorus.words import cyclic_canonical


def is_conjugate(u, v, unoriented=False):
    """Exact conjugacy in F via canonical cyclic forms.  Orientation matters
    unless unoriented=True, which also identifies v with v^-1."""
    return cyclic_canonical(u, unoriented) == cyclic_canonical(v, unoriented)
