"""Output checks for the benchmark workloads.

Every check recomputes what it asserts with numpy/scipy from the raw
outputs (adjacency matrices, proposal arrays, walk arrays); none of them
calls back into ``repro``.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["CheckError", "check_simple_graph", "check_fairgen_graph",
           "check_recurrent_graphs", "check_augmentation",
           "check_served_walks", "check_completed"]

#: generated-vs-input edge overlap must beat the input density by this
#: factor (a graph drawn at random would overlap at about the density)
OVERLAP_OVER_DENSITY = 10.0
#: relative tolerance on the protected group's volume (criterion 1 asks
#: for a "similar" volume; one edge between two protected nodes moves
#: it by two)
PROTECTED_VOLUME_RTOL = 0.05
#: baseline node-classification accuracy must beat chance by this factor
ACCURACY_OVER_CHANCE = 3.0


class CheckError(Exception):
    """A workload output violates a property the benchmark checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _upper_edges(adj: sp.spmatrix) -> set[tuple[int, int]]:
    upper = sp.triu(sp.coo_matrix(adj), k=1)
    return set(zip(upper.row.tolist(), upper.col.tolist()))


def check_simple_graph(adj, num_nodes: int, what: str = "graph") -> int:
    """Symmetric 0/1 adjacency without self-loops; returns its edge count."""
    adj = sp.csr_matrix(adj)
    _require(adj.shape == (num_nodes, num_nodes),
             f"{what}: shape {adj.shape}, expected "
             f"({num_nodes}, {num_nodes})")
    _require(abs(adj - adj.T).nnz == 0, f"{what}: adjacency not symmetric")
    _require(not np.any(adj.diagonal()), f"{what}: has self-loops")
    adj.eliminate_zeros()
    _require(bool(np.all(adj.data == 1)), f"{what}: entries are not 0/1")
    return int(sp.triu(adj, k=1).nnz)


def check_fairgen_graph(adj, input_adj, protected_mask) -> None:
    """FairGen output on a labelled graph (Section II-D assembly)."""
    input_adj = sp.csr_matrix(input_adj)
    n = input_adj.shape[0]
    m = int(sp.triu(input_adj, k=1).nnz)
    edges = check_simple_graph(adj, n, "fairgen graph")
    _require(edges == m, f"fairgen graph: {edges} edges, input has {m}")

    mask = np.asarray(protected_mask, dtype=bool)
    want = float(np.asarray(input_adj[mask].sum()))
    got = float(np.asarray(sp.csr_matrix(adj)[mask].sum()))
    _require(abs(got - want) <= PROTECTED_VOLUME_RTOL * want,
             f"fairgen graph: protected volume {got:g}, input {want:g}")

    overlap = len(_upper_edges(adj) & _upper_edges(input_adj)) / max(edges, 1)
    density = m / (n * (n - 1) / 2)
    _require(overlap >= OVERLAP_OVER_DENSITY * density,
             f"fairgen graph: edge overlap {overlap:.3f} is not "
             f"{OVERLAP_OVER_DENSITY:g}x the input density {density:.4f}")


def check_recurrent_graphs(graphrnn_adj, netgan_adj, input_adj) -> None:
    """GraphRNN and NetGAN outputs on an unlabelled graph."""
    input_adj = sp.csr_matrix(input_adj)
    n = input_adj.shape[0]
    m = int(sp.triu(input_adj, k=1).nnz)
    check_simple_graph(graphrnn_adj, n, "graphrnn graph")
    edges = check_simple_graph(netgan_adj, n, "netgan graph")
    _require(edges == m, f"netgan graph: {edges} edges, input has {m}")


def check_augmentation(input_adj, proposals, augmented_adj,
                       baseline_accuracy: float, num_classes: int,
                       fraction: float) -> None:
    """Figure 6 edge proposals and the graph they were inserted into."""
    input_adj = sp.csr_matrix(input_adj)
    n = input_adj.shape[0]
    m = int(sp.triu(input_adj, k=1).nnz)
    budget = max(1, int(round(fraction * m)))
    proposals = np.asarray(proposals).reshape(-1, 2)
    _require(len(proposals) == budget,
             f"augmentation: {len(proposals)} proposals, budget {budget}")
    _require(bool(np.all((proposals >= 0) & (proposals < n))),
             "augmentation: proposal node id out of range")
    _require(bool(np.all(proposals[:, 0] != proposals[:, 1])),
             "augmentation: self-loop proposed")
    pairs = {(min(u, v), max(u, v)) for u, v in proposals.tolist()}
    _require(len(pairs) == len(proposals),
             "augmentation: duplicate proposals")
    existing = _upper_edges(input_adj)
    _require(not pairs & existing,
             "augmentation: proposal already an input edge")

    edges = check_simple_graph(augmented_adj, n, "augmented graph")
    _require(edges == m + budget,
             f"augmented graph: {edges} edges, expected {m} + {budget}")
    _require(_upper_edges(augmented_adj) == existing | pairs,
             "augmented graph: edges differ from input plus proposals")
    _require(baseline_accuracy >= ACCURACY_OVER_CHANCE / num_classes,
             f"augmentation: baseline accuracy {baseline_accuracy:.3f} "
             f"not {ACCURACY_OVER_CHANCE:g}x chance (1/{num_classes})")


def check_served_walks(served, reference, what: str = "request") -> None:
    """A served walk array must equal the standalone one byte for byte."""
    served = np.asarray(served)
    reference = np.asarray(reference)
    _require(served.shape == reference.shape,
             f"{what}: served shape {served.shape}, standalone "
             f"{reference.shape}")
    _require(served.dtype == reference.dtype,
             f"{what}: served dtype {served.dtype}, standalone "
             f"{reference.dtype}")
    _require(served.tobytes() == reference.tobytes(),
             f"{what}: served walks differ from standalone sample")


def check_completed(submitted: int, completed: int, what: str) -> None:
    _require(submitted == completed,
             f"{what}: {completed} of {submitted} requests completed")
