"""The normal form by trying every vertex order: the reference normal form.

Each of the k! column orders of the vertex-facet pairing matrix is scored
by its rows sorted descending; the orders with the largest score are the
candidates, and the least row Hermite normal form of the vertex matrix over
them is the normal form.  The cost grows as k!, so it only serves as the
oracle that ``polytopes.normal_form`` is checked against.
"""

from itertools import permutations

from fanolab.linalg import hnf_rows


def normal_form_by_permutations(p):
    """The maximising column orders ``best_perms``, in the order
    ``permutations`` yields them, and the normal form matrix."""
    p.require_full_dim()
    verts = list(p.vertices)
    normals = [u for (u, _) in p.facets]
    k = len(verts)
    pairing = [[sum(a * b for a, b in zip(u, v)) for v in verts]
               for u in normals]
    best_key = None
    best_perms = []
    for sigma in permutations(range(k)):
        rows = sorted((tuple(row[j] for j in sigma) for row in pairing),
                      reverse=True)
        key = tuple(rows)
        if best_key is None or key > best_key:
            best_key = key
            best_perms = [sigma]
        elif key == best_key:
            best_perms.append(sigma)
    best_matrix = None
    for sigma in best_perms:
        h, _ = hnf_rows([[verts[j][i] for j in sigma]
                            for i in range(p.rank)])
        h = tuple(map(tuple, h))
        if best_matrix is None or h < best_matrix:
            best_matrix = h
    return best_perms, best_matrix
