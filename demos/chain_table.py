"""
Walking the feasible range of edge counts, one edge at a time
=============================================================

For fixed n and k, k-connected graphs exist exactly for epsilon between
the regular minimum (about nk/2) and the complete graph's C(n,2).  The
chain construction makes that interval concrete: start from a leanest
k-connected graph and add one edge per step, staying k-connected
throughout, until the graph is complete.
"""

from math import comb

from kconnseq import augment_chain, base_k_regular, degree_sequence, vertex_connectivity

N, K = 7, 3

# The starting point: a circulant on N vertices.  With N and K both odd a
# perfectly K-regular graph cannot exist (odd degree sum), so one vertex
# picks up an extra edge.
base = base_k_regular(N, K)
print(f"base graph for n={N}, k={K}: {base.edge_count} edges, "
      f"degrees {list(degree_sequence(base))}, "
      f"connectivity {vertex_connectivity(base)}")
print()

# Now run the chain all the way to the complete graph and tabulate each
# step.  The base is K-connected by Harary's theorem (the proof is in
# base_k_regular); each later graph contains it, and adding an edge never
# lowers connectivity.  The kappa column below measures it anyway.
steps = augment_chain(N, K, comb(N, 2))
print(f"{'epsilon':>8}  {'kappa':>5}  degree sequence")
for step in steps:
    kappa = vertex_connectivity(step.graph)
    print(f"{step.epsilon:>8}  {kappa:>5}  {{{step.sequence}}}")

# Each row's sequence differs from the previous in exactly two terms —
# the endpoints of the edge just added — so consecutive rows witness that
# both neighbouring epsilon values are achievable for this n and k.
