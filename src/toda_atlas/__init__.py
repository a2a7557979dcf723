"""Matrix factorizations, Weyl-indexed linearizing charts, and isospectral
flows for traceless real matrices, with a verification harness and CLI.

The manifold under study is the set of symmetric traceless matrices with
a fixed strictly decreasing spectrum. Charts indexed by permutations make
the sorting (Toda) flow exactly linear; the cells of the Bruhat
decomposition appear in each chart as coordinate subspaces and coincide
with the flow's stable and unstable manifolds. A companion
symmetrization flow retracts matrices with simple real spectrum onto
symmetric ones while preserving the spectrum and every Hessenberg-type
zero pattern.

Each module's ``__all__`` is its public API, imported from the module:
``from toda_atlas.atlas import chart_inverse``.
"""

__version__ = "0.1.0"
