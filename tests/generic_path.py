"""The reference side of every engine-equivalence test.

``Machine.guest_access`` is the generic per-access path and the reference
the engine step (``Machine._access_one``) is diffed against.  A declined
step has nothing to undo, so shadowing a machine's step with one that
always declines sends each of its guest accesses down the generic path.
"""


def force_generic_path(machine):
    """Make every guest access of ``machine`` run ``guest_access``."""
    machine._access_one = lambda session, gva, access: None
    return machine
