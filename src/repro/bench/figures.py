"""Figure 5–10 experiment drivers.

Every driver sweeps node counts with the paper's protocol (§4/§A.1):
stripe size = transfer size = block size, one task per node, repetitions
with max reported, and returns the per-API series plus the headline
ratios the paper quotes for that figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ior import IorConfig, run_ior
from repro.ior.report import format_results_table
from repro.pfs.configs import viking
from repro.pfs.lustre import LustreConfig
from repro.util.humanize import parse_size

#: the paper's sweep (up to 48 of Viking's 137 nodes, §4.1)
DEFAULT_NODE_COUNTS = (1, 2, 4, 8, 16, 32, 48)
#: per-rank checkpoint volume driven through each configuration
DEFAULT_BYTES_PER_TASK = 8 << 20


def default_cluster(**overrides) -> LustreConfig:
    """The calibrated Viking model used by every figure driver."""
    params = dict(store_data=False, client_jitter=0.8e-3)
    params.update(overrides)
    return viking(**params)


@dataclass
class FigureResult:
    """One figure's regenerated data."""

    figure: str
    title: str
    node_counts: list[int]
    #: label → bandwidth per node count (bytes/s); None = not measured
    series: dict[str, list[Optional[float]]] = field(default_factory=dict)
    #: headline comparisons: description → (measured, paper)
    ratios: dict[str, tuple[float, float]] = field(default_factory=dict)

    def table(self) -> str:
        text = format_results_table(
            f"{self.figure}: {self.title}", self.node_counts, self.series
        )
        if self.ratios:
            lines = [text, "", "headline ratios (measured vs. paper):"]
            for name, (measured, paper) in self.ratios.items():
                lines.append(f"  {name}: {measured:.1f}x (paper {paper}x)")
            text = "\n".join(lines)
        return text

    def ratio(self, label_a: str, label_b: str, at: int) -> float:
        """series[a] / series[b] at node count ``at``."""
        index = self.node_counts.index(at)
        a = self.series[label_a][index]
        b = self.series[label_b][index]
        return a / b

    def max_ratio(self, label_a: str, label_b: str) -> float:
        """max over node counts of series[a] / series[b]."""
        best = 0.0
        for a, b in zip(self.series[label_a], self.series[label_b]):
            if a and b:
                best = max(best, a / b)
        return best


def _sweep(
    api: str,
    node_counts,
    transfer_size,
    cluster: LustreConfig,
    bytes_per_task: int = DEFAULT_BYTES_PER_TASK,
    stripe_count: int = 4,
    read_back: bool = False,
    repetitions: int = 1,
    **extra,
) -> tuple[list[float], list[Optional[float]]]:
    """One API's write (and optionally read) series over node counts."""
    transfer = parse_size(transfer_size)
    writes: list[float] = []
    reads: list[Optional[float]] = []
    for nodes in node_counts:
        config = IorConfig(
            api=api,
            num_tasks=nodes,
            block_size=transfer,
            transfer_size=transfer,
            segment_count=max(1, bytes_per_task // transfer),
            stripe_count=stripe_count,
            stripe_size=transfer,
            read_back=read_back,
            repetitions=repetitions,
            **extra,
        )
        result = run_ior(config, cluster)
        writes.append(result.max_write_bw)
        reads.append(result.max_read_bw if read_back else None)
    return writes, reads


# ---------------------------------------------------------------------------
# Figure 5: IOR baseline vs LSMIO (write), stripe count 4, 64K & 1M
# ---------------------------------------------------------------------------


def fig5_ior_vs_lsmio(
    node_counts=DEFAULT_NODE_COUNTS,
    cluster: Optional[LustreConfig] = None,
    bytes_per_task: int = DEFAULT_BYTES_PER_TASK,
    repetitions: int = 1,
) -> FigureResult:
    cluster = cluster or default_cluster()
    result = FigureResult(
        "Figure 5",
        "IOR baseline vs LSMIO write bandwidth (stripe count 4)",
        list(node_counts),
    )
    for transfer in ("64K", "1M"):
        for api in ("posix", "lsmio"):
            label = f"{'ior' if api == 'posix' else api}/{transfer}"
            writes, _ = _sweep(
                api, node_counts, transfer, cluster,
                bytes_per_task=bytes_per_task, repetitions=repetitions,
            )
            result.series[label] = writes

    peak = max(result.series["ior/64K"])
    floor = result.series["ior/64K"][-1]
    result.ratios["IOR 64K drop after stripe count"] = (peak / floor, 6.2)
    result.ratios["IOR 64K->1M at max concurrency"] = (
        result.series["ior/1M"][-1] / result.series["ior/64K"][-1],
        4.9,
    )
    result.ratios["LSMIO vs IOR at max concurrency (64K)"] = (
        result.ratio("lsmio/64K", "ior/64K", node_counts[-1]),
        23.1,
    )
    if 1 in node_counts:
        result.ratios["LSMIO vs IOR at 1 node (<1 expected)"] = (
            result.ratio("lsmio/64K", "ior/64K", 1),
            1.0,
        )
    return result


# ---------------------------------------------------------------------------
# Figure 6: HDF5 and ADIOS2 vs LSMIO (write)
# ---------------------------------------------------------------------------


def fig6_hdf5_adios2(
    node_counts=DEFAULT_NODE_COUNTS,
    cluster: Optional[LustreConfig] = None,
    bytes_per_task: int = DEFAULT_BYTES_PER_TASK,
    repetitions: int = 1,
) -> FigureResult:
    cluster = cluster or default_cluster()
    result = FigureResult(
        "Figure 6",
        "HDF5 and ADIOS2 vs IOR baseline and LSMIO (stripe count 4)",
        list(node_counts),
    )
    for transfer in ("64K", "1M"):
        for api in ("posix", "hdf5", "adios2", "lsmio"):
            label = f"{'ior' if api == 'posix' else api}/{transfer}"
            writes, _ = _sweep(
                api, node_counts, transfer, cluster,
                bytes_per_task=bytes_per_task, repetitions=repetitions,
            )
            result.series[label] = writes

    last = node_counts[-1]
    result.ratios["ADIOS2 vs IOR at max concurrency (64K)"] = (
        result.ratio("adios2/64K", "ior/64K", last), 10.7,
    )
    result.ratios["LSMIO vs ADIOS2 at max concurrency (64K)"] = (
        result.ratio("lsmio/64K", "adios2/64K", last), 2.4,
    )
    result.ratios["LSMIO vs HDF5 at max concurrency (64K)"] = (
        result.ratio("lsmio/64K", "hdf5/64K", last), 76.7,
    )
    result.ratios["ADIOS2 vs HDF5 at max concurrency (64K)"] = (
        result.ratio("adios2/64K", "hdf5/64K", last), 35.3,
    )
    result.ratios["IOR vs HDF5, max over sweep (64K)"] = (
        result.max_ratio("ior/64K", "hdf5/64K"), 48.1,
    )
    result.ratios["HDF5 64K->1M at max concurrency"] = (
        result.ratio("hdf5/1M", "hdf5/64K", last), 9.9,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 7: ADIOS2 vs LSMIO plugin vs LSMIO baseline, 64K & 1M
# ---------------------------------------------------------------------------


def fig7_plugin(
    node_counts=DEFAULT_NODE_COUNTS,
    cluster: Optional[LustreConfig] = None,
    bytes_per_task: int = DEFAULT_BYTES_PER_TASK,
    repetitions: int = 1,
) -> FigureResult:
    cluster = cluster or default_cluster()
    result = FigureResult(
        "Figure 7",
        "ADIOS2 vs LSMIO plugin vs LSMIO baseline (stripe count 4)",
        list(node_counts),
    )
    for transfer in ("64K", "1M"):
        for api in ("adios2", "lsmio-plugin", "lsmio"):
            writes, _ = _sweep(
                api, node_counts, transfer, cluster,
                bytes_per_task=bytes_per_task, repetitions=repetitions,
            )
            result.series[f"{api}/{transfer}"] = writes

    last = node_counts[-1]
    result.ratios["plugin vs ADIOS2 at max concurrency (64K)"] = (
        result.ratio("lsmio-plugin/64K", "adios2/64K", last), 1.5,
    )
    result.ratios["LSMIO vs plugin at max concurrency (64K)"] = (
        result.ratio("lsmio/64K", "lsmio-plugin/64K", last), 1.5,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 8: stripe counts 4 vs 16, size 64K
# ---------------------------------------------------------------------------


def fig8_stripe_counts(
    node_counts=DEFAULT_NODE_COUNTS,
    cluster: Optional[LustreConfig] = None,
    bytes_per_task: int = DEFAULT_BYTES_PER_TASK,
    repetitions: int = 1,
) -> FigureResult:
    cluster = cluster or default_cluster()
    result = FigureResult(
        "Figure 8",
        "ADIOS2 vs LSMIO plugin vs LSMIO, stripe counts 4 and 16 (64K)",
        list(node_counts),
    )
    for stripe_count in (4, 16):
        for api in ("adios2", "lsmio-plugin", "lsmio"):
            writes, _ = _sweep(
                api, node_counts, "64K", cluster,
                bytes_per_task=bytes_per_task,
                stripe_count=stripe_count,
                repetitions=repetitions,
            )
            result.series[f"{api}/sc{stripe_count}"] = writes

    last = node_counts[-1]
    result.ratios["plugin vs ADIOS2 (sc4) at max concurrency"] = (
        result.ratio("lsmio-plugin/sc4", "adios2/sc4", last), 1.5,
    )
    result.ratios["LSMIO vs plugin (sc4) at max concurrency"] = (
        result.ratio("lsmio/sc4", "lsmio-plugin/sc4", last), 1.5,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 9: collective I/O (IOR and HDF5) vs LSMIO, 64K
# ---------------------------------------------------------------------------


def fig9_collective(
    node_counts=DEFAULT_NODE_COUNTS,
    cluster: Optional[LustreConfig] = None,
    bytes_per_task: int = DEFAULT_BYTES_PER_TASK,
    repetitions: int = 1,
) -> FigureResult:
    cluster = cluster or default_cluster()
    result = FigureResult(
        "Figure 9",
        "Collective I/O: IOR and HDF5 (+collective) vs LSMIO (64K, sc 4)",
        list(node_counts),
    )
    sweeps = [
        ("ior", "posix", {}),
        ("ior+col", "posix", {"collective": True}),
        ("hdf5", "hdf5", {}),
        ("hdf5+col", "hdf5", {"collective": True}),
        ("lsmio", "lsmio", {}),
    ]
    for label, api, extra in sweeps:
        writes, _ = _sweep(
            api, node_counts, "64K", cluster,
            bytes_per_task=bytes_per_task, repetitions=repetitions, **extra,
        )
        result.series[label] = writes
    # The paper's §5.1 future work: LSMIO's own collective mode
    # (grouped aggregation through the K/V layer).
    writes, _ = _sweep(
        "lsmio", node_counts, "64K", cluster,
        bytes_per_task=bytes_per_task, repetitions=repetitions,
        engine_params={"collective_group_size": 8},
    )
    result.series["lsmio+col(fw)"] = writes

    last = node_counts[-1]
    result.ratios["collective improves IOR at max concurrency"] = (
        result.ratio("ior+col", "ior", last), 12.1,
    )
    result.ratios["LSMIO vs IOR+collective at max concurrency"] = (
        result.ratio("lsmio", "ior+col", last), 2.2,
    )
    low = node_counts[min(2, len(node_counts) - 1)]
    result.ratios[f"collective improves HDF5 at {low} nodes"] = (
        result.ratio("hdf5+col", "hdf5", low), 2.0,
    )
    result.ratios["collective hurts HDF5 at max concurrency (paper 1/2.5)"] = (
        result.ratio("hdf5+col", "hdf5", last), 0.4,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 10: read bandwidth, 64K
# ---------------------------------------------------------------------------


def fig10_read(
    node_counts=DEFAULT_NODE_COUNTS,
    cluster: Optional[LustreConfig] = None,
    bytes_per_task: int = DEFAULT_BYTES_PER_TASK,
    repetitions: int = 1,
) -> FigureResult:
    cluster = cluster or default_cluster()
    result = FigureResult(
        "Figure 10",
        "Read bandwidth: IOR (±collective), HDF5, ADIOS2, LSMIO (64K, sc 4)",
        list(node_counts),
    )
    sweeps = [
        ("ior", "posix", {}),
        ("ior+col", "posix", {"collective": True}),
        ("hdf5", "hdf5", {}),
        ("adios2", "adios2", {}),
        ("lsmio-plugin", "lsmio-plugin", {}),
        ("lsmio", "lsmio", {}),
        # §5.1 future work: sequential/batch reads from the LSM-tree.
        ("lsmio-batch(fw)", "lsmio", {"engine_params": {"batch_read": True}}),
    ]
    for label, api, extra in sweeps:
        _, reads = _sweep(
            api, node_counts, "64K", cluster,
            bytes_per_task=bytes_per_task, read_back=True,
            repetitions=repetitions, **extra,
        )
        result.series[label] = reads

    last = node_counts[-1]
    result.ratios["LSMIO vs IOR read at max concurrency"] = (
        result.ratio("lsmio", "ior", last), 5.5,
    )
    # "on average within 23.3% of ADIOS2": mean of lsmio/adios2 across N.
    pairs = [
        (a, b)
        for a, b in zip(result.series["lsmio"], result.series["adios2"])
        if a and b
    ]
    mean_fraction = sum(a / b for a, b in pairs) / len(pairs)
    result.ratios["LSMIO/ADIOS2 read, mean over sweep (paper 0.767)"] = (
        mean_fraction, 0.767,
    )
    result.ratios["IOR vs HDF5 read, max over sweep"] = (
        result.max_ratio("ior", "hdf5"), 125.2,
    )
    result.ratios["LSMIO vs HDF5 read, max over sweep"] = (
        result.max_ratio("lsmio", "hdf5"), 687.2,
    )
    result.ratios["collective slows IOR read (paper 1/18.6)"] = (
        result.ratio("ior+col", "ior", last), 1 / 18.6,
    )
    return result


FIGURES = {
    "fig5": fig5_ior_vs_lsmio,
    "fig6": fig6_hdf5_adios2,
    "fig7": fig7_plugin,
    "fig8": fig8_stripe_counts,
    "fig9": fig9_collective,
    "fig10": fig10_read,
}
