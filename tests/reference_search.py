"""The recursive monotone extension search for hitting sets: the
reference that the packed extension search (`schoning._Walker.extend`)
must match start by start, bit for bit."""


def hitting_set_monotone_search(family, base, t):
    """Feasible superset of `base` within t additions, by branching on
    the first un-hit set (at most d branches, depth t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    base = frozenset(base)
    for s in family.sets:
        if not s & base:
            if t == 0:
                return None
            for element in sorted(s):
                found = hitting_set_monotone_search(
                    family, base | {element}, t - 1
                )
                if found is not None:
                    return found
            return None
    return base
