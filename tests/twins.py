"""Brute-force references shared by the differential tests."""

import itertools


def automorphisms(group) -> tuple[tuple[int, ...], ...]:
    """All automorphisms of ``group`` as index permutations (perm[i] = image
    of i), sorted: every choice of images of the standard generators with
    the generators' orders, kept when the induced map is a bijection.  For
    the desk-scale groups of the tests (order a few dozen)."""
    size = group.order()
    if size == 1:
        return ((0,),)
    elems = group.elements()
    # candidate images for generator i: elements of order exactly ns[i]
    candidates = [
        [j for j, e in enumerate(elems) if group.element_order(e) == n]
        for n in group.invariant_factors
    ]
    autos = []
    for images in itertools.product(*candidates):
        # the image of e is the sum of coord copies of each generator image
        table = []
        for e in elems:
            acc = 0
            for coord, img in zip(e, images):
                for _ in range(coord):
                    acc = group.add_index(acc, img)
            table.append(acc)
        if len(set(table)) == size:
            autos.append(tuple(table))
    return tuple(sorted(autos))
