"""Pivot decision-tree training: basic and enhanced protocols (§4, §5).

Implements Algorithm 3 one depth at a time: every node of a level runs the
three steps of §4.1 together, so each step is one flow for the whole level
and the training rounds grow with the depth h, not with the 2^h nodes.

1. **Local computation** — every party holds each node's encrypted label
   vectors [γ] (one fewer than there are classes): under the basic
   protocol they ride with [α] from the root, where the super client
   encrypts them once; otherwise she publishes the level's re-randomised
   β ∘ [α] in the level's ``split-stats`` request (see
   :mod:`repro.core.labels`).  That one request names every node of the
   level whose statistics are computed (below the root, every open node
   but a right child whose left sibling is open: see *Sibling
   subtraction* below) and the level's public layout, and carries the super
   client's own masked groups; every other client answers the super
   client with encrypted *left-child* split statistics for her local
   splits of every node (homomorphic dot products, Eq. 7 / Eq. 9),
   slot-packed by her into the groups of her segment, with her Algorithm
   2 masks (lines 1-3) already in them: her mask encryption of every
   group of the level, and her ``(−r mod q)`` shares beside; her groups
   also go to every other non-super client.  The root's
   [α] is public: the deterministic encryption of the root weights, which
   every party forms herself from the root's entry at the head of level
   0's first request (:meth:`TreeTrainer.fit`).
2. **MPC computation** — every client multiplies the m parties' groups
   into the level's masked batch and sends the super client her partial
   decryption of it, which ends Algorithm 2 in the same exchange; the last
   class and the right child are completed by local share subtraction;
   impurity gains of every node are evaluated in one :func:`~repro.core.gain.secure_split_gains`
   call (Eq. 5/6/8); the best split of every node is found with one secure
   maximum over the level's gain rows (one per distinct row width when
   ``remove_used_feature`` leaves nodes different candidate counts),
   yielding each node's secretly shared identifier (⟨i*⟩, ⟨j*⟩, ⟨s*⟩).
3. **Model update** — *basic protocol*: the identifiers are reconstructed
   and each split owner gets one ``split-apply`` request listing her
   nodes; she broadcasts one ``node-split`` list with each node's
   threshold and encrypted left-child mask vector [α_l] with its label
   vectors [γ_l]; every party derives the right children as the
   homomorphic differences [α] ⊖ [α_l] and [γ] ⊖ [γ_l] from vectors she
   already holds.
   *Enhanced protocol* (§5.2): only (i*, j*) is revealed; every ⟨s*⟩ of
   the level is turned into the encrypted selection vectors [λ] in one
   reverse conversion, each owner runs private split selection
   (Theorem 2), and one encrypted mask update of Eq. (10) over the level's
   concatenated [α] builds every left child — slot-packed, since [α] is an
   exact 0/1 vector — and its last broadcast is a ``node-split`` list
   stored as the basic one.  The split thresholds and
   leaf labels stay hidden as secret shares in the node's ``hidden``
   payload (``threshold_share``, ``label_share``), which is what §5.2
   prediction and the ensembles read.
   Either way the children's mask vectors are built only when the
   children will read them: below ``max_depth`` and with a candidate split
   left, both public.  In a full tree half of the internal nodes split
   into leaves at the depth limit; their basic ``node-split`` entries carry
   the threshold and empty vectors, and their enhanced split stops at the
   shared threshold: no [λ], no [v], no Eq. 10.

**Costs per level.**  Each flow is paid once per level, whatever the
number of nodes: bus rounds are ``split-stats`` 2 (the request and the
replies and groups, which carry the masks; then the partial decryptions)
+ ``split-apply`` 1 under the basic protocol (3h for a full tree of depth
h), and under the enhanced one ``split-stats`` 2 (its request carries the
label vectors), plus reverse conversion 2 + [v] 1 + Eq. 10 5 at a level
whose children are built (2h + 8(h − 1)).  Below the root, a level whose
nodes all become leaves at the pruning checks sends nothing; the root
converts first, so a root that cannot split converts its totals alone (2
rounds), and a root pruned later has had its candidates converted and
its [γ] published.  The MPC rounds of a level are those of one node.
The level's statistics travel and decrypt at their declared width
(:meth:`TreeTrainer._stat_bound`), for its *converted* nodes only (see
*Sibling subtraction*): with T = V₀ + Σ S·(1 + V) values over them in
G = ⌈T / slots⌉ packed groups, every party sends every other party one
ciphertext per group (the super client in her request, the others to her
with one share per value of the level, and to each other), every
non-super party sends the super client one partial decryption per group,
and the request names each converted node (``key, available``: e bytes)
and, under the enhanced protocol, carries its [γ] (V·n ciphertexts).  So
``split-stats`` moves (m − 1)·[(m·(1 + |c|) + |c|)·G + |s|·T + Σ e] bytes
plus the enhanced [γ] and a fixed framing, with |c| = 2⌈|n|/8⌉ bytes a
ciphertext and |s| = ⌈|q|/8⌉ a share; Algorithm 2 decrypts G
ciphertexts (Cd); and the level takes m·G pool masks (every party's mask
encryption of each group), plus V·n per converted node under the
enhanced protocol (the re-randomised [γ]).

**Sibling subtraction.**  Eq. 7-9 are linear in a node's [α], so for
every candidate the left child's converted row plus the right child's is
the parent's, which the parent's level converted and still holds as
shares.  Below the root, where both children of a split pass the pruning
checks, only the left one (key 2k) is computed and converted; the right
one's rows are the parent's minus the left's, per candidate identifier
(``remove_used_feature`` leaves the children a subset of the parent's
candidates), and it gets no gammas entry.  The left is always the one
computed, a public rule, so which nodes convert tells nobody anything the
pruning bits did not.  A lone open child converts as any node.  A full
tree of depth h converts 2^(h−1) nodes where converting both siblings
took 2^h − 1.

**Every statistic crosses the ciphertext→share boundary at most once.**
Only the root converts its own label totals [Σγ_k], in level 0's batch;
its count Σα is the
public sum of the root weights, shared as a constant.  A child's (n, g_k)
*are* the
winning split's (n_l, g_{l,k}) — or the node's minus those — so each node
hands its children their :class:`~repro.core.gain.NodeStats`: picked by the
opened index under the basic protocol, by Σ_i onehot_i · stat_i under the
enhanced one (the index stays hidden; the one-hot entries are raw 0/1, so
the selection is exact).  Threshold decryptions: per level
⌈(V₀ + Σ S·(1 + V)) / slots⌉ over the level's converted nodes, each with S
candidate splits over V published label vectors, V₀ = V at level 0 (plus
⌈Σ n / 11⌉ for Eq. 10 under the enhanced protocol, over the nodes whose
children are built).  A slot is
bitlen(W) + κ + bitlen(m) bits for classification (W the root weight
sum: 48 bits, 10 per 512-bit ciphertext, at W = 48, m = 3) and
``fx.k`` + κ + bitlen(m) for regression (82 bits, 6 per ciphertext), so
slots = ⌊(|n| − 1) / width⌋; an undeclared riding [γ] has one value per
ciphertext.

Pruning conditions (§2.3, Algorithm 3 lines 1-3) are evaluated securely:
maximum depth is public, the sample-count and purity checks open a single
bit per node, and the "no split with positive gain" check compares each
shared maximum gain against the shared threshold.  They need only the
nodes' shared statistics, so below the root a node that turns out a leaf
never has label vectors published for it: none at all under the basic
protocol, where they ride, and no gammas entry under the others.

With a :class:`~repro.core.config.DPConfig`, training follows §9.2: noisy
pruning counts (secure Laplace, Algorithm 5), exponential-mechanism split
selection (Algorithm 6) and noisy leaf statistics; a level draws all
its Laplace noise in one call.
"""

from __future__ import annotations

import operator
import secrets
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.config import PivotConfig
from repro.core.gain import NodeStats, SplitStats, secure_split_gains
from repro.core.labels import EncryptedLabelProvider, PlaintextLabelProvider
from repro.crypto.encoding import EncryptedNumber
from repro.federation.party import level_entries
from repro.mpc.conversion import (
    PackedBatch,
    check_masked_opening,
    magnitude_bits,
    mask_layout,
    segment_header,
)
from repro.mpc.sharing import SharedValue
from repro.network.flows import collect_partial_vectors, collect_replies
from repro.network.wire import Request
from repro.tree.model import DecisionTreeModel, TreeNode

if TYPE_CHECKING:
    from repro.federation.federation import Federation

__all__ = [
    "TreeTrainer",
    "SECURE_GAIN_EPS",
    "SECURE_ARGMAX_SLACK",
]

#: Fixed-point slack added to the leaf threshold: a node becomes a leaf iff
#: max gain <= min_gain + eps.  Protocol-equivalence with plaintext CART
#: holds whenever no split's true gain lies within eps of min_gain.
SECURE_GAIN_EPS = 2.0**-9

#: Slack of the secure argmax over split gains, in raw fixed-point units
#: (ulps of 2^-F): a later candidate replaces the running best only if its
#: gain is more than this many ulps higher.  Two candidates that induce
#: the same partition have equal true gains but shared gains a few ulps
#: apart (every ``trunc_pr`` rounds up or down at random; at most 5 ulps
#: between identical candidates over 300 generated nodes, both modes and
#: tasks), so without slack the winner of an exact tie is a coin flip of
#: the dealer stream.  Protocol-equivalence with plaintext CART (earliest
#: index among the maxima) holds whenever any two candidates' true gains,
#: on the scale of the gain mode, are either equal or more than 2·slack
#: ulps apart — 2^-11 at F = 16, a quarter of SECURE_GAIN_EPS.
SECURE_ARGMAX_SLACK = 16


@dataclass(eq=False)
class _Open:
    """A node of the level being grown: its heap key (root 1, children of
    k at 2k and 2k + 1), its shared statistics (``None`` for the root
    until level 0's conversion), the features left to it, and its [α]
    with the riding [γ]s — ``None`` where nobody built them (children of
    a split at the last level, or without a candidate left) — and, on a
    right child, its parent's converted rows by identifier."""

    key: int
    stats: NodeStats | None
    available: list[list[int]]
    alpha: list[EncryptedNumber] | None = None
    gammas: list[list[EncryptedNumber]] | None = None
    parent_rows: Mapping[tuple[int, int, int], list[SharedValue]] = field(
        default_factory=dict
    )


@dataclass
class _Split:
    """A node of the level that splits: its revealed owner and feature, the
    split index where it is revealed (basic), the children's feature sets,
    :meth:`TreeTrainer._children_read`'s verdict, the left child's
    statistics (the right child's are the node's minus these) and the
    node's converted rows by identifier."""

    node: _Open
    owner: int
    feature: int
    split: int | None
    child_available: list[list[int]]
    build: bool
    left: NodeStats
    rows: Mapping[tuple[int, int, int], list[SharedValue]]


class TreeTrainer:
    """One privacy-preserving CART training run over a Federation.

    The implementation behind :class:`repro.federation.PivotClassifier` /
    :class:`~repro.federation.PivotRegressor`.
    """

    def __init__(
        self,
        context: Federation,
        label_provider: PlaintextLabelProvider | EncryptedLabelProvider | None = None,
    ):
        self.ctx = context
        self.cfg: PivotConfig = context.config
        self.fx = context.fx
        # A count of n samples is n·2^F raw, and secure division needs its
        # denominators below 2^(2F-1): past that AppRcr's w truncates to
        # 0 and a gain or leaf mean opens wrong without any error.
        if context.n_samples >= 1 << (self.fx.f - 1):
            raise ValueError(
                f"{context.n_samples} samples: secure division at F = "
                f"{self.fx.f} fractional bits needs fewer than 2^(F-1) = "
                f"{1 << (self.fx.f - 1)}"
            )
        self.engine = context.engine
        if label_provider is None:
            label_provider = PlaintextLabelProvider(
                context, context.read_labels(), context.partition.task
            )
        self.provider = label_provider
        self.task = label_provider.task
        self.enhanced = self.cfg.protocol == "enhanced"
        #: Declared magnitude of the node and split statistics, which lets
        #: their conversions slot-pack (see repro.mpc.conversion), set by
        #: fit() from the root weights: see _stat_bound.
        self._stat_bound_bits: int | None = None
        #: Bit length of the largest entry of the initial mask vector, set
        #: by fit(): every node's [α] is that vector times 0/1 indicators,
        #: so it bounds each element Eq. 10 opens under a mask.
        self._alpha_bits = 1
        #: Set by fit(): the root's public count W, and its entry until
        #: level 0's first request carries it (:meth:`_take_root_entry`).
        self._weight_sum = 0
        self._root_entry: list | None = None
        self._dp = None
        if self.cfg.dp is not None:
            from repro.core.dp import DPMechanisms

            self._dp = DPMechanisms(self.fx, self.cfg.dp)
        self.model: DecisionTreeModel | None = None

    # ------------------------------------------------------------------

    def fit(self, initial_mask: np.ndarray | None = None) -> DecisionTreeModel:
        """Train one tree; ``initial_mask`` supports RF bagging (§7.1).

        The root weights — all ones, or the bagging mask — are public
        (:func:`~repro.tree.forest.forest_subsets`) and travel in
        plaintext in the root's entry ``[weights, riding [γ]s]``, which
        rides level 0's ``split-stats`` request:
        every party encrypts them deterministically herself, so the root's
        [α] takes no pool mask and never goes on the wire.  They must be
        non-negative integers; anything else raises ``ValueError``.
        """
        ctx = self.ctx
        weights = _root_weights(initial_mask, ctx.n_samples)
        self._alpha_bits = max(1, max(weights).bit_length())
        self._weight_sum = sum(weights)
        self._stat_bound_bits = self._stat_bound(self._weight_sum)
        root_gammas = [list(g) for g in self.provider.root_vectors(weights)]
        self._root_entry = [weights, root_gammas]
        runtime = ctx.runtimes[ctx.super_client]
        runtime.store_root(weights, root_gammas)
        alpha, gammas = runtime.nodes[1]
        available = [list(range(c.n_features)) for c in ctx.clients]
        tree: dict[int, TreeNode] = {}
        level = [_Open(1, None, available, alpha, gammas)]
        depth = 0
        while level:
            level = self._grow_level(level, depth, tree)
            depth += 1
        for key, node in tree.items():
            if not node.is_leaf:
                node.left, node.right = tree[2 * key], tree[2 * key + 1]
        n_classes = self.provider.n_classes if self.task == "classification" else 0
        self.model = DecisionTreeModel(tree[1], self.task, n_classes)
        return self.model

    # ------------------------------------------------------------------
    # one level of Algorithm 3
    # ------------------------------------------------------------------

    def _stat_bound(self, weight_sum: int) -> int | None:
        """The declared bound of every node and split statistic, at its own
        scale (:func:`~repro.mpc.conversion.magnitude_bits`).

        A class count is a sum of mask entries, at most the public root
        weight sum W, so it has bitlen(W) bits; a regression label sum is
        a fixed-point value and declares ``fx.k``.  Both hold under either
        protocol (the enhanced [α] is as exact a mask as the basic one).
        A riding encrypted-label [γ] has no written-down width, so it
        declares nothing and converts one ciphertext per value.
        """
        if not isinstance(self.provider, PlaintextLabelProvider):
            return None
        if self.task == "classification":
            return weight_sum.bit_length()
        return self.fx.k

    def _node_stats(self, shares: list[SharedValue]) -> NodeStats:
        """``[n, one sum per published label vector]`` as converted, plus
        the class nobody publishes: every sample has exactly one class, so
        its count is n minus the others' (for any mask vector [α])."""
        n, totals = shares[0], list(shares[1:])
        if self.task == "classification":
            totals.append(n - self.engine.sum_values(totals))
        return NodeStats(n, totals)

    def _grow_level(
        self, nodes: list[_Open], depth: int, tree: dict[int, TreeNode]
    ) -> list[_Open]:
        """Algorithm 3 for every node at ``depth`` at once: prune, split
        what is left, label the leaves; returns the next level's nodes.
        Every finished node goes into ``tree`` under its heap key.  A node
        without a candidate split is a leaf at once.  The root has no
        statistics before level 0's conversion, so its pruning checks come
        after it; below, a node is pruned before anything is sent for it."""
        ctx = self.ctx
        leaves: list[_Open] = []
        children: list[_Open] = []
        if depth >= self.cfg.tree.max_depth:
            leaves, nodes = nodes, []
        split_ids = ctx.split_identifiers
        nodes = _keep(nodes, [not split_ids(node.available) for node in nodes], leaves)
        rows = self._level_statistics(nodes, root=(nodes + leaves)[0]) if depth == 0 else {}
        noise = self._level_noise(nodes, nodes + leaves)
        nodes = self._prune(nodes, depth, leaves, noise)
        if nodes:
            rows = rows or self._level_rows(nodes)
            children = self._split_level(nodes, rows, depth, tree, leaves)
        self._make_leaves(leaves, depth, tree, noise)
        return children

    def _level_noise(
        self, checked: list[_Open], every: list[_Open]
    ) -> dict[int, list[SharedValue]]:
        """Under DP (§9.2), a level's Laplace noise in one draw, by node
        key: a leaf's worth for every node (its totals, or a label sum and
        a count), since any of them may end a leaf, then one term for the
        sample count of each node ``checked`` by the pruning conditions.
        Without DP, nothing."""
        if self._dp is None or not every:
            return {}
        width = len(every[0].stats.totals) if self.task == "classification" else 2
        sizes = {node.key: width for node in every}
        for node in checked:
            sizes[node.key] += 1
        draws = iter(self._dp.laplace_noise(1.0, sum(sizes.values())))
        return {key: [next(draws) for _ in range(size)] for key, size in sizes.items()}

    def _prune(
        self,
        nodes: list[_Open],
        depth: int,
        leaves: list[_Open],
        noise: dict[int, list[SharedValue]],
    ) -> list[_Open]:
        """The secure pruning checks (Algorithm 3, lines 1-3) of a level:
        one compare and one opening for the sample counts (noisy under
        DP), then one argmax, one equality test and one opening for
        purity.  Each node's bit is logged as revealed; the pruned nodes
        join ``leaves``."""
        if not nodes:
            return nodes
        ctx, fx = self.ctx, self.fx
        counts = [node.stats.n for node in nodes]
        if noise:
            counts = [count + noise[node.key][-1] for count, node in zip(counts, nodes)]
        minimum = fx.share(self.cfg.tree.min_samples_split)
        too_small = fx.gt([minimum] * len(counts), counts)
        nodes = _keep(
            nodes, ctx.open_bits(too_small, tag=f"prune-count-d{depth}"), leaves
        )
        if self.task == "classification" and nodes:
            maxima = fx.argmax([node.stats.totals for node in nodes])
            pure = fx.eqz(
                [node.stats.n - g_max for node, (_, g_max, _) in zip(nodes, maxima)]
            )
            nodes = _keep(
                nodes, ctx.open_bits(pure, tag=f"prune-pure-d{depth}"), leaves
            )
        return nodes

    def _level_statistics(
        self, nodes: list[_Open], root: _Open | None = None
    ) -> dict[int, list[list[SharedValue]]]:
        """Local computation (§4.1) and the conversion of its statistics
        for the level's ``nodes``: by node key, one row of converted
        left-child shares per candidate, ``[n_l, g_l per label vector]``.
        With ``root`` (level 0; ``nodes`` is then empty if it cannot
        split) its label totals join the batch and set its statistics."""
        ctx = self.ctx
        identifiers = [ctx.split_identifiers(node.available) for node in nodes]
        entries: list = []
        if self.provider.rides_with_alpha or not nodes:
            gammas = [node.gammas or [] for node in nodes]
        else:
            entries = self.provider.gammas(
                [node.alpha for node in nodes], [node.key for node in nodes]
            )
            gammas = [node_gammas for _, node_gammas in level_entries(entries, 2)]
        shares = iter(
            self._compute_split_stats(nodes, identifiers, gammas, root, entries)
        )
        if root is not None:
            totals = [next(shares) for _ in range(self.provider.n_vectors)]
            root.stats = self._node_stats([self.fx.share(self._weight_sum), *totals])
        # The winning row is what the children inherit, so it is kept as
        # converted — _mask_invalid_splits only ever rebinds SplitStats.
        return {
            node.key: [[next(shares) for _ in range(1 + len(g))] for _ in ids]
            for node, ids, g in zip(nodes, identifiers, gammas)
        }

    def _level_rows(self, nodes: list[_Open]) -> dict[int, list[list[SharedValue]]]:
        """The rows of a level below the root: a right child whose left
        sibling is open takes its parent's minus the sibling's, per
        candidate (module docstring, *Sibling subtraction*)."""
        keys = {node.key for node in nodes}
        derived = [n for n in nodes if n.parent_rows and n.key - 1 in keys]
        rows = self._level_statistics([n for n in nodes if n not in derived])
        for node in derived:
            ids = self.ctx.split_identifiers(node.available)
            rows[node.key] = [
                [p - left for p, left in zip(node.parent_rows[i], row)]
                for i, row in zip(ids, rows[node.key - 1])
            ]
        return rows

    def _take_root_entry(self) -> list:
        """``[root entry]`` for level 0's first request, then ``[]``."""
        entry, self._root_entry = self._root_entry, None
        return [] if entry is None else [entry]

    def _split_level(
        self,
        nodes: list[_Open],
        converted: Mapping[int, list[list[SharedValue]]],
        depth: int,
        tree: dict[int, TreeNode],
        leaves: list[_Open],
    ) -> list[_Open]:
        """MPC computation and model update (§4.1) for the level's nodes
        that passed the pruning checks, from their ``converted`` rows."""
        ctx, fx = self.ctx, self.fx
        identifiers = [ctx.split_identifiers(node.available) for node in nodes]
        rows = [converted[node.key] for node in nodes]
        splits = []
        for node, node_rows in zip(nodes, rows):
            node_splits = []
            for row in node_rows:
                left = self._node_stats(row)
                right = node.stats - left
                node_splits.append(
                    SplitStats(left.n, right.n, left.totals, right.totals)
                )
            splits.append(node_splits)
        if self.cfg.tree.min_samples_leaf > 1:
            self._mask_invalid_splits([s for node_splits in splits for s in node_splits])
        gains, leaf_thresholds = secure_split_gains(
            fx, self.task, [node.stats for node in nodes], splits, self.cfg.tree.min_gain
        )

        if self._dp is not None:
            picks = self._dp.exponential_mechanism(gains)
        else:
            best = self._argmax_rows(gains)
            eps = fx.share(SECURE_GAIN_EPS)
            gained = fx.gt(
                [best_gain for _, best_gain, _ in best],
                [threshold + eps for threshold in leaf_thresholds],
            )
            stops = ctx.open_bits(
                [1 - bit for bit in gained], tag=f"prune-gain-d{depth}"
            )
            picks = [(index, onehot) for index, _, onehot in best]
            split_here = [i for i, stop in enumerate(stops) if not stop]
            leaves.extend(node for node, stop in zip(nodes, stops) if stop)
            nodes, identifiers, picks, rows = (
                [items[i] for i in split_here]
                for items in (nodes, identifiers, picks, rows)
            )
        if not nodes:
            return []

        # -- model update ----------------------------------------------------
        update = self._update_enhanced if self.enhanced else self._update_basic
        return update(nodes, identifiers, picks, rows, depth, tree)

    def _argmax_rows(
        self, rows: list[list[SharedValue]]
    ) -> list[tuple[SharedValue, SharedValue, list[SharedValue]]]:
        """The secure argmax of every gain row: one call per distinct row
        width (``remove_used_feature`` leaves nodes different candidate
        counts), results in row order."""
        results: list = [None] * len(rows)
        for width in dict.fromkeys(len(row) for row in rows):
            at = [i for i, row in enumerate(rows) if len(row) == width]
            picked = self.fx.argmax([rows[i] for i in at], slack=SECURE_ARGMAX_SLACK)
            for i, result in zip(at, picked):
                results[i] = result
        return results

    def _compute_split_stats(
        self,
        nodes: list[_Open],
        identifiers: list[list[tuple[int, int, int]]],
        gammas: list[list[list[EncryptedNumber]]],
        root: _Open | None = None,
        entries: Sequence = (),
    ) -> list[SharedValue]:
        """Each client's local homomorphic dot products (Eq. 7 / Eq. 9) for
        every node of the level, masked and converted to shares by one
        Algorithm 2 whose lines 1-5 ride the statistics' exchange; the
        shares come back in global identifier order (clients ascending,
        the :meth:`~repro.federation.federation.Federation.split_identifiers`
        order), node after node, after ``root``'s label totals if given.

        The super client computes her masked groups first, through her own
        runtime, and folds the level's public offsets into them.  Then she
        broadcasts one ``split-stats`` request: the level's public layout
        (the parties' statistics in party order, each party a segment
        starting at a public slot, every value masked at one width, the
        widest any value needs: :func:`~repro.mpc.conversion.segment_header`),
        her groups, the label-vector ``entries`` of nodes whose [γ] do not
        ride (:meth:`PlaintextLabelProvider.gammas`), the root's entry at
        level 0, and the nodes with their available-feature lists; the
        root's totals head her segment.  Every other party reacts on her
        own event loop, over her own columns and node states: she sends
        the super client her masked groups and ``(−r mod q)`` shares, and
        every other non-super party her groups; once she holds all m
        parties' groups she multiplies them into the level's masked batch
        and sends the super client alone her partial decryption of it
        (:meth:`PartyRuntime._op_split_stats`).  The super client forms
        the same batch from the replies, adds her own partial decryption,
        and Algorithm 2 ends on the m vectors with the shares beside
        them: two rounds, the exchange and the vectors.

        The malicious-model extension overrides this to attach and verify
        POHDP proofs (§9.1.2) on every statistic before packing.
        """
        ctx = self.ctx
        sup = ctx.super_client
        totals = [] if root is None else self._root_totals(root)
        scales = [
            [node.alpha[0].exponent, *(g[0].exponent for g in node_gammas)]
            for node, node_gammas in zip(nodes, gammas)
        ]
        # Party order: each party's identifiers of every node, node after
        # node — exactly the order she computes them in.
        exponents = {
            c.index: [
                exponent
                for ids, node_scales in zip(identifiers, scales)
                for owner, _, _ in ids
                if owner == c.index
                for exponent in node_scales
            ]
            for c in ctx.clients
        }
        exponents[sup][:0] = [total.exponent for total in totals]
        ordered = [exponent for c in ctx.clients for exponent in exponents[c.index]]
        # Every party masks at the header's one width: the widest value's.
        beta = max(magnitude_bits(ordered, self.fx, self._stat_bound_bits))
        magnitudes = [beta] * len(ordered)
        mask_bits, packed = beta + self.engine.kappa, self._stat_bound_bits is not None
        header = segment_header(
            mask_bits, [len(exponents[c.index]) for c in ctx.clients], packed
        )
        level = mask_layout(
            [mask_bits] * len(ordered), ctx.n_clients, ctx.threshold.public_key, packed
        )
        runtime = ctx.runtimes[sup]
        own_groups, own_shares = runtime.split_statistics(
            [node.key for node in nodes],
            [list(node.available[sup]) for node in nodes],
            header,
            totals,
        )
        if level.packed:
            own_groups = [
                g + offset for g, offset in zip(own_groups, level.offsets(magnitudes))
            ]
        request = Request(
            "split-stats",
            [
                header,
                own_groups,
                list(entries),
                *self._take_root_entry(),
                *(item for node in nodes for item in (node.key, node.available)),
            ],
        )
        # pivotlint: disable=PL011 -- PL011 sees only the acting party's sends (a CHANGES.md FOUND line): the second phase is the peers' partial decryptions to her
        with ctx.bus.flow(2):
            ctx.bus.broadcast_payload(sup, request, tag="split-stats")
            vectors, replies = collect_partial_vectors(
                ctx.bus, sup, level.n_groups, "split-stats", replies=True
            )
            replies[sup] = [own_groups, own_shares]
            masked, negated = [], []
            for c in ctx.clients:
                party_groups, party_shares = replies[c.index]
                shape = (len(party_groups), len(party_shares.values))
                if shape != (level.n_groups, len(ordered)):
                    raise ValueError(
                        f"split statistics shape mismatch: expected "
                        f"{level.n_groups} packed ciphertexts and {len(ordered)} "
                        f"shares from party {c.index}, got {shape[0]} and {shape[1]}"
                    )
                masked.append(party_groups)
                negated.append([int(v) for v in party_shares.values])
            groups = [reduce(operator.add, column) for column in zip(*masked)]
            vectors[sup] = runtime.decryption_shares(groups)
        shares = iter(
            ctx.to_shares(
                PackedBatch(
                    groups, level, magnitudes, ordered, negated,
                    [vectors[c.index] for c in ctx.clients],
                )
            )
        )
        # Deal each party's shares out in global identifier order.
        unread = {
            c.index: iter([next(shares) for _ in exponents[c.index]])
            for c in ctx.clients
        }
        return [next(unread[sup]) for _ in totals] + [
            next(unread[owner])
            for ids, node_gammas in zip(identifiers, gammas)
            for owner, _, _ in ids
            for _ in range(1 + len(node_gammas))
        ]

    def _root_totals(self, root: _Open) -> list[EncryptedNumber]:
        """The root's label totals [Σγ_k], folded by the super client."""
        if root.gammas:
            return [self.ctx.batch.sum_ciphertexts(g) for g in root.gammas]
        return self.provider.totals(root.alpha)

    # ------------------------------------------------------------------
    # model update: basic protocol (§4.1 "Model update")
    # ------------------------------------------------------------------

    def _update_basic(
        self,
        nodes: list[_Open],
        identifiers: list[list[tuple[int, int, int]]],
        picks: list[tuple[SharedValue, list[SharedValue]]],
        rows: list[list[list[SharedValue]]],
        depth: int,
        tree: dict[int, TreeNode],
    ) -> list[_Open]:
        """Model update (§4.1) of a level: every winning identifier is
        opened in one round and logged, the owners apply the splits
        (:meth:`_apply_splits`), and the opened index also picks each
        node's children's statistics: the winning row of ``rows`` is the
        left child's, the node's minus it the right child's."""
        ctx = self.ctx
        flats = ctx.engine.open_many([index for index, _ in picks])
        splits = []
        for node, ids, flat, node_rows in zip(nodes, identifiers, flats, rows):
            owner, feature, split = ids[flat]
            ctx.revealed.append((f"best-split-d{depth}", (owner, feature, split)))
            child_available = _child_available(
                node.available, owner, feature, self.cfg.tree.remove_used_feature
            )
            splits.append(
                _Split(
                    node, owner, feature, split, child_available,
                    self._children_read(depth, child_available),
                    self._node_stats(node_rows[flat]), dict(zip(ids, node_rows)),
                )
            )
        thresholds, store = self._apply_splits(splits)
        for s, threshold in zip(splits, thresholds):
            tree[s.node.key] = self._internal_node(s, depth, threshold)
        return [child for s in splits for child in _children(s, store)]

    def _apply_splits(
        self, splits: list[_Split]
    ) -> tuple[list[float], Mapping[int, list]]:
        """The level's split owners react on their own event loops: each
        masks [α] (and the riding [γ]s) of her nodes by her plaintext left
        indicators, re-randomised (pooled masks, batched), and broadcasts
        one ``node-split`` list with each node's left child and revealed
        threshold; every party derives the right children as [α] ⊖ [α_l].
        The super client sends each other owner one ``split-apply``
        request listing that owner's nodes, applies her own splits through
        her own runtime, and takes the other owners' children from their
        replies like every other party.  Each entry carries
        :meth:`_children_read`'s public bit: for children that will not
        read a mask vector the ``node-split`` entry still goes out (the
        threshold), with empty vectors.

        Returns the thresholds in ``splits`` order and the super client's
        node store, which now holds what the children read: each left
        child as broadcast, each right one derived, or neither.
        """
        ctx = self.ctx
        sup = ctx.super_client
        ride = 1 if self.provider.rides_with_alpha else 0
        by_owner: dict[int, list[list[int]]] = {}
        for s in splits:
            by_owner.setdefault(s.owner, []).append(
                [s.node.key, s.feature, s.split, ride, int(s.build)]
            )
        others = [owner for owner in by_owner if owner != sup]
        with ctx.bus.flow(1):
            for owner in others:
                body = [item for entry in by_owner[owner] for item in entry]
                ctx.bus.send_payload(
                    sup, owner, Request("split-apply", body), tag="mask-vector"
                )
            bodies = (
                ctx.runtimes[sup].apply_split(by_owner[sup]) if sup in by_owner else []
            )
            replies = collect_replies(ctx.bus, sup, others, "mask-vector")
            for owner, reply in replies.items():
                if not isinstance(reply, Request) or reply.op != "node-split":
                    raise ValueError(
                        f"expected a node-split reply from party {owner}, "
                        f"got {reply!r}"
                    )
            for owner in others:
                for body in level_entries(list(replies[owner].body), 4):
                    ctx.runtimes[sup].store_split(body)
                    bodies.append(body)
        threshold_of = {body[0]: body[1] for body in bodies}
        return [threshold_of[s.node.key] for s in splits], ctx.runtimes[sup].nodes

    # ------------------------------------------------------------------
    # model update: enhanced protocol (§5.2)
    # ------------------------------------------------------------------

    def _update_enhanced(
        self,
        nodes: list[_Open],
        identifiers: list[list[tuple[int, int, int]]],
        picks: list[tuple[SharedValue, list[SharedValue]]],
        rows: list[list[list[SharedValue]]],
        depth: int,
        tree: dict[int, TreeNode],
    ) -> list[_Open]:
        ctx, engine = self.ctx, self.engine
        onehots = [onehot for _, onehot in picks]
        # The winning indices stay hidden, so the left children's
        # statistics are selected obliviously: Σ_i onehot_i · rows[i], one
        # batch of Beaver multiplications for the level (the one-hot
        # entries are raw 0/1 — the products are the statistics
        # themselves, no rescale).
        width = len(rows[0][0])
        products = iter(
            engine.mul_many(
                [
                    (bit, stat)
                    for onehot, node_rows in zip(onehots, rows)
                    for bit, row in zip(onehot, node_rows)
                    for stat in row
                ]
            )
        )
        lefts = []
        for onehot in onehots:
            mine = [next(products) for _ in range(len(onehot) * width)]
            lefts.append(
                self._node_stats(
                    [engine.sum_values(mine[s::width]) for s in range(width)]
                )
            )
        # Reveal only (i*, j*) per node: per-feature sums of each one-hot
        # vector open to a single 1 at the winning feature; s* stays
        # hidden.  One opening for the level.
        groups = []
        sums = []
        for ids, onehot in zip(identifiers, onehots):
            feature_groups: dict[tuple[int, int], list[int]] = {}
            for index, (ci, fj, _s) in enumerate(ids):
                feature_groups.setdefault((ci, fj), []).append(index)
            groups.append(feature_groups)
            sums += [
                engine.sum_values([onehot[i] for i in members])
                for members in feature_groups.values()
            ]
        opened = iter(engine.open_many(sums))
        splits = []
        selections = []
        for node, ids, feature_groups, onehot, left, node_rows in zip(
            nodes, identifiers, groups, onehots, lefts, rows
        ):
            winners = []
            for key in feature_groups:
                if next(opened) == 1:
                    winners.append(key)
            if len(winners) != 1:
                raise RuntimeError("one-hot feature reveal is inconsistent")
            owner_idx, feature = winners[0]
            ctx.revealed.append((f"best-feature-d{depth}", (owner_idx, feature)))
            lam_shares = [onehot[i] for i in feature_groups[(owner_idx, feature)]]
            # Shared split threshold: Σ_s λ_s · encode(t_s), local.
            encoded_vals = [
                ctx.encoder.encode(float(t)).encoding
                for t in ctx.clients[owner_idx].split_values[feature]
            ]
            child_available = _child_available(
                node.available, owner_idx, feature, self.cfg.tree.remove_used_feature
            )
            split = _Split(
                node, owner_idx, feature, None, child_available,
                self._children_read(depth, child_available), left,
                dict(zip(ids, node_rows)),
            )
            tree_node = self._internal_node(split, depth, None)  # hidden (§5.2)
            tree_node.hidden["threshold_share"] = engine.sum_values(
                [lam * enc for lam, enc in zip(lam_shares, encoded_vals)]
            )
            tree[node.key] = tree_node
            splits.append(split)
            selections.append(lam_shares)
        built = [(s, lam) for s, lam in zip(splits, selections) if s.build]
        if built:
            # Encrypted selection vectors [λ] (conversion of §5.2), one
            # batch for the level, only where Eq. 10 reads them; λ is a raw
            # 0/1 vector, so it is encrypted at exponent 0.
            ciphers = iter(
                ctx.to_cipher([bit for _, lam in built for bit in lam], exponent=0)
            )
            lams = [[next(ciphers) for _ in lam] for _, lam in built]
            # Private split selection (Theorem 2): [v] = V (x) [λ], one batched
            # fan-out over the n rows of every owner's n x n' indicator matrix.
            # It is charged one round, though nothing is sent (a CHANGES.md
            # FOUND line).
            with ctx.bus.flow(1):
                v_left = ctx.batch.batch_dot_products(
                    [
                        (list(row.astype(np.int64)), lam_cts)
                        for (s, _), lam_cts in zip(built, lams)
                        for row in ctx.clients[s.owner].indicator_matrix(s.feature)
                    ]
                )
            # Eq. 10 over the level's concatenated [α]s (and riding [γ]s)
            # builds the left children; every party derives each right
            # child, [α] ⊖ [α_l] — the plaintext of α·(1 − v).
            nodes = [s.node for s, _ in built]
            vectors = [[a for node in nodes for a in node.alpha or []]]
            if self.provider.rides_with_alpha:
                vectors += [
                    [g for node in nodes for g in (node.gammas or [])[k]]
                    for k in range(self.provider.n_vectors)
                ]
            self._masked_elementwise_product(
                [node.key for node in nodes], v_left, vectors, bound_bits=self._alpha_bits
            )
        store = ctx.runtimes[ctx.super_client].nodes
        return [child for s in splits for child in _children(s, store)]

    def _masked_elementwise_product(
        self,
        keys: list[int],
        v_enc: list[EncryptedNumber],
        vectors: list[list[EncryptedNumber]],
        bound_bits: int | None = None,
    ) -> None:
        """Eq. (10): [α'_j] = [α_j · v_j] via MPC conversion, in one flow for
        ``vectors`` — the nodes ``keys``' concatenated [α], then each riding
        [γ_k] — published as those nodes' left children.

        Each [α_j] is converted with Algorithm 2 kept over the integers
        (the super client holds e - r_sup, the others -r_i); every client
        multiplies her integer share into [v_j] homomorphically and the
        super client sums the results.  This is the O(n)·Cd term of the
        enhanced protocol (§6, §8.3.1).

        ``bound_bits`` declares ``|α_j| < 2**bound_bits`` on
        ``vectors[0]``, which is slot-packed as in
        :func:`~repro.mpc.conversion.ciphers_to_shares` (11 elements of a
        0/1 [α] per 512-bit ciphertext); an undeclared riding [γ] keeps one
        ciphertext per element, masked at the width its scale admits
        (:func:`~repro.mpc.conversion.magnitude_bits`).  Either way an
        opened e_j wider than its masks raises
        :class:`~repro.mpc.conversion.MaskBoundError`.

        Bus flow (all real payloads, tag ``eq10``): the other clients send
        their mask-ciphertext vectors to the super client; the masked
        batch goes through the canonical threshold-decryption flow; every
        other client sends her share-multiplied term vector to the super
        client, who re-masks the combined products from her pool and
        broadcasts them as one ``node-split`` request, ``[key, [], [α_l],
        [γ_l]]`` per key (no threshold: it stays hidden), which every party
        stores (:meth:`~repro.federation.party.PartyRuntime.store_split`).
        """
        ctx, fx = self.ctx, self.fx
        m, sup = ctx.n_clients, ctx.super_client
        others = [party for party in range(m) if party != sup]
        pk = ctx.threshold.public_key
        parts = []  # (vector, magnitudes, mask bits, layout), one per vector
        for index, vector in enumerate(vectors):
            declared = bound_bits if index == 0 else None
            magnitudes = magnitude_bits([a.exponent for a in vector], fx, declared)
            bits_list = [beta + ctx.engine.kappa for beta in magnitudes]
            layout = mask_layout(bits_list, m, pk, declared is not None)
            parts.append((vector, magnitudes, bits_list, layout))
        masks_by_party = [
            [[secrets.randbits(bits) for bits in bits_list] for _, _, bits_list, _ in parts]
            for _ in range(m)
        ]
        mask_cts = [
            [
                ct
                for (*_, layout), masks in zip(parts, party_masks)
                for ct in ctx.batch.encrypt_ciphertexts(layout.pack_plaintexts(masks))
            ]
            for party_masks in masks_by_party
        ]
        masked_cts = [
            ct
            for vector, magnitudes, _, layout in parts
            for ct in layout.pack_ciphertexts(
                [a_ct.ciphertext for a_ct in vector], magnitudes
            )
        ]
        for party_cts in mask_cts:
            masked_cts = [
                masked + mask_ct for masked, mask_ct in zip(masked_cts, party_cts)
            ]
        with ctx.bus.flow(1):
            for party in others:
                ctx.bus.send_payload(party, sup, mask_cts[party], tag="eq10")
        plains = iter(ctx.joint_decrypt_raw(masked_cts, tag="eq10", signed=False))
        terms_by_party: dict[int, list] = {party: [] for party in others}
        products = []
        for index, (vector, magnitudes, bits_list, layout) in enumerate(parts):
            ctx.conversions.threshold_decryptions += layout.n_groups
            opened = layout.unpack(
                [next(plains) for _ in range(layout.n_groups)], magnitudes, pk
            )
            product = []
            for j, (e, beta, bits, a_ct, v_ct) in enumerate(
                zip(opened, magnitudes, bits_list, vector, v_enc)
            ):
                check_masked_opening(e + (1 << beta), bits, m)
                # The super client's share is e - r_sup, the others' -r_i:
                # they raise [-v_j] (one modular inverse) to r_i rather than
                # [v_j] to the full-size exponent n - r_i.
                combined = v_ct.ciphertext * (e - masks_by_party[sup][index][j])
                negated = -v_ct.ciphertext
                for party in others:
                    term = negated * masks_by_party[party][index][j]
                    terms_by_party[party].append(term)
                    combined = combined + term
                product.append(ctx.encoder.wrap(combined, a_ct.exponent + v_ct.exponent))
            # The sum is [v_j]^{α_j}, the unit wherever α_j = 0: re-masked,
            # or it would show every party the parent's samples.
            products.append(ctx.batch.mask_vector(product, [1] * len(product)))
        # Every node's [α] has one element per sample.
        size = len(products[0]) // max(1, len(keys))
        cut = [[p[i * size : (i + 1) * size] for p in products] for i in range(len(keys))]
        entries = [[key, [], alpha_l, gam_l] for key, (alpha_l, *gam_l) in zip(keys, cut)]
        with ctx.bus.flow(2):
            for party in others:
                ctx.bus.send_payload(party, sup, terms_by_party[party], tag="eq10")
            # She combines what she gathered, then publishes: a second round.
            ctx.bus.broadcast_payload(
                sup, Request("node-split", [item for entry in entries for item in entry]),
                tag="eq10",
            )
            for entry in entries:
                ctx.runtimes[sup].store_split(entry)

    # ------------------------------------------------------------------
    # leaves
    # ------------------------------------------------------------------

    def _make_leaves(
        self,
        leaves: list[_Open],
        depth: int,
        tree: dict[int, TreeNode],
        noise: dict[int, list[SharedValue]],
    ) -> None:
        """Label every leaf of a level at once: one argmax over the class
        counts (classification) or one division over the label sums
        (regression), noisy under DP, and under the basic protocol one
        opening."""
        if not leaves:
            return
        ctx, fx = self.ctx, self.fx
        nodes = [TreeNode(is_leaf=True, depth=depth, n_samples=None) for _ in leaves]
        for leaf, node in zip(leaves, nodes):
            tree[leaf.key] = node
        if self.task == "classification":
            rows = [leaf.stats.totals for leaf in leaves]
            if noise:
                rows = [
                    [t + z for t, z in zip(row, noise[leaf.key])]
                    for row, leaf in zip(rows, leaves)
                ]
            indices = [index for index, _, _ in fx.argmax(rows)]
            if self.enhanced:
                for node, index in zip(nodes, indices):
                    node.hidden["label_share"] = index * (1 << fx.f)
                return
            for node, label in zip(nodes, ctx.engine.open_many(indices)):
                node.prediction = label
                ctx.revealed.append((f"leaf-label-d{depth}", label))
            return
        sums = [leaf.stats.totals[0] for leaf in leaves]
        counts = [leaf.stats.n for leaf in leaves]
        if noise:
            sums = [s + noise[leaf.key][0] for s, leaf in zip(sums, leaves)]
            counts = [c + noise[leaf.key][1] for c, leaf in zip(counts, leaves)]
        means = [mean for (mean,) in fx.div([[s] for s in sums], counts)]
        if self.enhanced:
            for node, mean in zip(nodes, means):
                node.hidden["label_share"] = mean
                node.hidden["label_scale"] = self.provider.label_scale
            return
        opened = ctx.open_values(means, tag=f"leaf-label-d{depth}")
        for node, mean in zip(nodes, opened):
            node.prediction = mean * self.provider.label_scale

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _internal_node(
        self, split: _Split, depth: int, threshold: float | None
    ) -> TreeNode:
        owner, feature = split.owner, split.feature
        return TreeNode(
            is_leaf=False,
            depth=depth,
            n_samples=None,
            owner=owner,
            feature=feature,
            global_feature=self.ctx.partition.global_feature_of(owner, feature),
            threshold=threshold,
        )

    def _children_read(self, depth: int, child_available: list[list[int]]) -> bool:
        """Whether a split's children will read their mask vectors: their
        depth is below ``max_depth`` and they still have a candidate split.
        Both facts are public; without either, each child is a leaf whose
        label comes from the inherited statistics, and its [α] is never
        built (its ``_Open`` holds ``None``)."""
        return depth + 1 < self.cfg.tree.max_depth and bool(
            self.ctx.split_identifiers(child_available)
        )

    def _mask_invalid_splits(self, splits: list[SplitStats]) -> None:
        """Force gains of splits violating min_samples_leaf to lose."""
        fx, engine = self.fx, self.engine
        counts = [n for split in splits for n in (split.n_left, split.n_right)]
        minimum = fx.share(self.cfg.tree.min_samples_leaf)
        small = fx.gt([minimum] * len(counts), counts)
        valid = engine.mul_many(
            [(1 - left, 1 - right) for left, right in zip(small[0::2], small[1::2])]
        )
        # Zero out the child statistics of invalid splits: the gain
        # formulas then evaluate to the parent score (gain 0).
        sides = [[split.n_left, split.n_right, *split.left, *split.right] for split in splits]
        masked = iter(
            engine.mul_many(
                [(value, ok) for values, ok in zip(sides, valid) for value in values]
            )
        )
        for split in splits:
            split.n_left, split.n_right = next(masked), next(masked)
            split.left = [next(masked) for _ in split.left]
            split.right = [next(masked) for _ in split.right]


def _keep(items: list, stops: list, dropped: list) -> list:
    """The items whose stop flag is unset; the others go to ``dropped``."""
    dropped.extend(item for item, stop in zip(items, stops) if stop)
    return [item for item, stop in zip(items, stops) if not stop]


def _children(split: _Split, store: Mapping[int, list]) -> list[_Open]:
    """A split's two children for the next level, with their mask and label
    vectors from ``store`` where the split built them (a store may still
    hold an earlier tree's node under the same heap key)."""
    key, node = split.node.key, split.node
    left, right = (
        (store[2 * key], store[2 * key + 1]) if split.build else ((None, None),) * 2
    )
    return [
        _Open(2 * key, split.left, split.child_available, *left),
        _Open(2 * key + 1, node.stats - split.left, split.child_available, *right, split.rows),
    ]


def _root_weights(initial_mask: np.ndarray | None, n_samples: int) -> list[int]:
    """The root's public per-sample weights as wire-ready ints: all ones,
    or ``initial_mask`` if every entry is a non-negative integer.  (A cast
    would truncate 0.5 to 0 and train on nobody.)"""
    if initial_mask is None:
        return [1] * n_samples
    given = np.asarray(initial_mask)
    if given.shape != (n_samples,):
        raise ValueError(
            f"initial mask length mismatch: {given.shape} for {n_samples} samples"
        )
    if not np.all(np.isfinite(given) & (given >= 0) & (given == np.floor(given))):
        raise ValueError("initial mask weights must be non-negative integers")
    return [int(w) for w in given]


def _child_available(
    available: list[list[int]], owner: int, feature: int, remove: bool
) -> list[list[int]]:
    if not remove:
        return available
    child = [list(f) for f in available]
    child[owner] = [f for f in child[owner] if f != feature]
    return child
