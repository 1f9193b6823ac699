"""Pivot decision-tree training: basic and enhanced protocols (§4, §5).

Implements Algorithm 3 with the three steps of §4.1 per tree node:

1. **Local computation** — the super client broadcasts the encrypted,
   re-randomised label vectors [γ] (via the label provider; one fewer than
   there are classes); every client computes encrypted *left-child* split
   statistics for her local splits with homomorphic dot products (Eq. 7 /
   Eq. 9) and re-masks each before it leaves her.
2. **MPC computation** — the encrypted statistics are converted to secret
   shares (Algorithm 2); the last class and the right child are completed
   by local share subtraction; impurity gains are evaluated with secure
   division and multiplication (Eq. 5/6/8); the best split is found with
   the secure maximum, yielding the secretly shared identifier (⟨i*⟩,
   ⟨j*⟩, ⟨s*⟩).
3. **Model update** — *basic protocol*: the identifier is reconstructed and
   client i* broadcasts the encrypted child mask vectors [α_l], [α_r].
   *Enhanced protocol* (§5.2): only (i*, j*) is revealed; ⟨s*⟩ is turned
   into the encrypted selection vector [λ], client i* runs private split
   selection (Theorem 2) and the encrypted mask update of Eq. (10) for the
   left child — slot-packed, since [α] is an exact 0/1 vector — and the
   right child is the homomorphic difference [α] ⊖ [α_l]; the split
   threshold and leaf labels stay hidden (shared + encrypted forms are
   attached to the node's ``hidden`` payload).

**Every statistic crosses the ciphertext→share boundary at most once.**
Only the root converts its own [Σα, Σγ_k].  A child's (n, g_k) *are* the
winning split's (n_l, g_{l,k}) — or the node's minus those — so each node
hands its children their :class:`~repro.core.gain.NodeStats`: picked by the
opened index under the basic protocol, by Σ_i onehot_i · stat_i under the
enhanced one (the index stays hidden; the one-hot entries are raw 0/1, so
the selection is exact).  Threshold decryptions per node: 1 at the root,
⌈S·(1 + V) / slots⌉ per internal node for S candidate splits over V
published label vectors (plus ⌈n / 11⌉ for Eq. 10 under the enhanced
protocol), none at a leaf.

Pruning conditions (§2.3, Algorithm 3 lines 1-3) are evaluated securely:
maximum depth is public, the sample-count and purity checks open a single
bit each, and the "no split with positive gain" check compares the shared
maximum gain against the shared threshold.  They need only the node's
shared statistics, so a node that turns out a leaf never has label vectors
built for it.

With a :class:`~repro.core.config.DPConfig`, training follows §9.2: noisy
pruning counts (secure Laplace, Algorithm 5), exponential-mechanism split
selection (Algorithm 6) and noisy leaf statistics.
"""

from __future__ import annotations

import secrets
import warnings

import numpy as np

from repro.core.config import PivotConfig
from repro.core.context import PivotContext
from repro.core.gain import NodeStats, SplitStats, secure_split_gains
from repro.core.labels import EncryptedLabelProvider, PlaintextLabelProvider
from repro.crypto.encoding import EncryptedNumber, encrypted_dot_product
from repro.mpc.conversion import check_masked_opening, mask_layout
from repro.mpc.sharing import SharedValue
from repro.network.flows import broadcast_request, collect_replies, react_runtimes
from repro.network.wire import Request
from repro.tree.model import DecisionTreeModel, TreeNode

__all__ = [
    "PivotDecisionTree",
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


class TreeTrainer:
    """One privacy-preserving CART training run over a PivotContext.

    The implementation behind :class:`repro.federation.PivotClassifier` /
    :class:`~repro.federation.PivotRegressor` (and the deprecated
    :class:`PivotDecisionTree` flat-API shim).
    """

    def __init__(
        self,
        context: PivotContext,
        label_provider: PlaintextLabelProvider | EncryptedLabelProvider | None = None,
    ):
        self.ctx = context
        self.cfg: PivotConfig = context.config
        self.fx = context.fx
        self.engine = context.engine
        if label_provider is None:
            label_provider = PlaintextLabelProvider(
                context, context.read_labels(), context.partition.task
            )
        self.provider = label_provider
        self.task = label_provider.task
        self.enhanced = self.cfg.protocol == "enhanced"
        #: Declared magnitude of the node and split statistics at the MPC
        #: scale, which lets their conversions slot-pack (see
        #: repro.mpc.conversion).  True for sums of mask entries times
        #: plaintext labels under either protocol (the enhanced [α] is as
        #: exact a 0/1 vector as the basic one); a riding encrypted-label
        #: [γ] has no written-down width, so it declares nothing and
        #: converts one ciphertext per value.
        self._stat_bound_bits = (
            self.fx.k
            if isinstance(label_provider, PlaintextLabelProvider)
            else None
        )
        #: Bit length of the largest entry of the initial mask vector, set
        #: by fit(): every node's [α] is that vector times 0/1 indicators,
        #: so it bounds each element Eq. 10 opens under a mask.
        self._alpha_bits = 1
        #: Public width of a sample count at the MPC scale: n <= n_samples,
        #: so n·2^F < 2^(bitlen(n_samples) + F).  Declared to the secure
        #: divisions as ``b_bits`` (see FixedPointOps.div): a structural
        #: bound, true for every node, mask and protocol.
        self._count_bits = min(
            self.fx.k, context.n_samples.bit_length() + self.fx.f
        )
        self._dp = None
        if self.cfg.dp is not None:
            from repro.core.dp import DPMechanisms

            self._dp = DPMechanisms(self.fx, self.cfg.dp)
        self.model: DecisionTreeModel | None = None

    # ------------------------------------------------------------------

    def fit(self, initial_mask: np.ndarray | None = None) -> DecisionTreeModel:
        """Train one tree; ``initial_mask`` supports RF bagging (§7.1)."""
        ctx = self.ctx
        if initial_mask is None:
            bits = np.ones(ctx.n_samples, dtype=np.int64)
        else:
            bits = np.asarray(initial_mask).astype(np.int64)
            if bits.shape[0] != ctx.n_samples:
                raise ValueError("initial mask length mismatch")
        self._alpha_bits = max(1, int(np.abs(bits).max()).bit_length())
        alpha = ctx.encrypt_indicator(bits)
        # Root node state: the super client *requests*, every other party
        # stores [α] (plus the riding [γ]s for encrypted-label rounds) on
        # her own event loop, keyed by heap position (root = 1).
        root_gammas = (
            [list(g) for g in self.provider.root_gammas]
            if self.provider.rides_with_alpha
            else []
        )
        ctx.runtimes[ctx.super_client].store_node(1, alpha, root_gammas)
        broadcast_request(
            ctx.bus,
            ctx.super_client,
            "node-state",
            [1, alpha, root_gammas],
            tag="mask-vector",
            runtimes=ctx.runtimes,
        )
        ctx.bus.round()
        available = [list(range(c.n_features)) for c in ctx.clients]
        # The one node whose own statistics are converted.
        root_stats = self._node_stats(
            ctx.to_shares(
                [ctx.batch.sum_ciphertexts(alpha), *self.provider.totals(alpha)],
                bound_bits=self._stat_bound_bits,
            )
        )
        root = self._build(alpha, None, available, 0, 1, root_stats)
        n_classes = self.provider.n_classes if self.task == "classification" else 0
        self.model = DecisionTreeModel(root, self.task, n_classes)
        return self.model

    # ------------------------------------------------------------------
    # recursive node construction
    # ------------------------------------------------------------------

    def _node_stats(self, shares: list[SharedValue]) -> NodeStats:
        """``[n, one sum per published label vector]`` as converted, plus
        the class nobody publishes: every sample has exactly one class, so
        its count is n minus the others' (for any mask vector [α])."""
        n, totals = shares[0], list(shares[1:])
        if self.task == "classification":
            totals.append(n - self.engine.sum_values(totals))
        return NodeStats(n, totals)

    def _build(
        self,
        alpha: list[EncryptedNumber],
        node_gammas: list[list[EncryptedNumber]] | None,
        available: list[list[int]],
        depth: int,
        node_key: int,
        node_stats: NodeStats,
    ) -> TreeNode:
        ctx, fx = self.ctx, self.fx
        n_node, totals = node_stats.n, node_stats.totals

        # -- pruning conditions (Algorithm 3, lines 1-3) --------------------
        if depth >= self.cfg.tree.max_depth:
            return self._make_leaf(node_stats, depth)
        if not any(available[c.index] for c in ctx.clients):
            return self._make_leaf(node_stats, depth)
        check_n = n_node
        if self._dp is not None:
            check_n = check_n + self._dp.laplace_noise(sensitivity=1.0)
        too_small = ctx.open_bit(
            fx.lt(check_n, fx.share(self.cfg.tree.min_samples_split)),
            tag=f"prune-count-d{depth}",
        )
        if too_small:
            return self._make_leaf(node_stats, depth)
        if self.task == "classification":
            _, g_max, _ = fx.argmax(totals)
            pure = ctx.open_bit(
                fx.eqz(n_node - g_max), tag=f"prune-pure-d{depth}"
            )
            if pure:
                return self._make_leaf(node_stats, depth)

        # -- local computation: encrypted split statistics (Eq. 7 / 9) -------
        identifiers = ctx.split_identifiers(available)
        if not identifiers:
            return self._make_leaf(node_stats, depth)
        gammas = self.provider.gammas(alpha, node_gammas, node_key)
        stat_cts = self._compute_split_stats(
            identifiers, alpha, gammas, available, node_key
        )

        # -- MPC computation: convert + secure gains + secure max -----------
        stat_shares = ctx.to_shares(stat_cts, bound_bits=self._stat_bound_bits)
        stride = 1 + len(gammas)
        # One row of converted left-child shares per identifier; the
        # winning row is what the children inherit, so it is kept as
        # converted — _mask_invalid_splits only ever rebinds SplitStats.
        rows = [
            stat_shares[base : base + stride]
            for base in range(0, len(stat_shares), stride)
        ]
        splits = []
        for row in rows:
            left = self._node_stats(row)
            right = node_stats - left
            splits.append(SplitStats(left.n, right.n, left.totals, right.totals))
        if self.cfg.tree.min_samples_leaf > 1:
            self._mask_invalid_splits(splits)
        gains, leaf_threshold = secure_split_gains(
            fx, self.task, node_stats, splits, self.cfg.gain_mode,
            self.cfg.tree.min_gain, count_bits=self._count_bits,
        )

        if self._dp is not None:
            best_index, onehot = self._dp.exponential_mechanism(gains)
        else:
            best_index, best_gain, onehot = fx.argmax(
                gains, slack=SECURE_ARGMAX_SLACK
            )
            threshold = leaf_threshold + fx.share(SECURE_GAIN_EPS)
            no_gain = ctx.open_bit(
                self.engine.add_public(
                    -fx.gt(best_gain, threshold), 1
                ),
                tag=f"prune-gain-d{depth}",
            )
            if no_gain:
                return self._make_leaf(node_stats, depth)

        # -- model update ----------------------------------------------------
        if self.enhanced:
            return self._split_enhanced(
                alpha, gammas, available, depth, identifiers, onehot,
                node_stats, rows, node_key,
            )
        return self._split_basic(
            alpha, gammas, available, depth, identifiers, best_index,
            node_stats, rows, node_key,
        )

    def _compute_split_stats(
        self,
        identifiers: list[tuple[int, int, int]],
        alpha: list[EncryptedNumber],
        gammas: list[list[EncryptedNumber]],
        available: list[list[int]],
        node_key: int,
    ) -> list[EncryptedNumber]:
        """Each client's local homomorphic dot products (Eq. 7 / Eq. 9),
        as a reactive request/response flow.

        The super client broadcasts one ``split-stats`` request naming the
        node and the available-feature lists; every other party reacts by
        computing *her* identifiers' statistics on her own event loop —
        over her own columns, from her own copy of the node state — and
        broadcasting the flat ciphertext vector.  The super client
        computes and broadcasts her own the same way, then reassembles
        global identifier order (clients ascending, the
        :meth:`~repro.core.context.PivotContext.split_identifiers` order)
        from the per-party chunks.

        The malicious-model extension overrides this to attach and verify
        POHDP proofs (§9.1.2).
        """
        ctx = self.ctx
        sup = ctx.super_client
        broadcast_request(
            ctx.bus,
            sup,
            "split-stats",
            [node_key, available],
            tag="split-stats",
            runtimes=ctx.runtimes,
        )
        own_stats = ctx.runtimes[sup].split_statistics(
            node_key, list(available[sup])
        )
        ctx.bus.broadcast_payload(sup, own_stats, tag="split-stats")
        others = [c.index for c in ctx.clients if c.index != sup]
        replies = collect_replies(ctx.bus, sup, others)
        # Two synchronisation rounds, same shape as the threshold-decrypt
        # flow: the request broadcast, then the reply wave that causally
        # depends on it (a reply cannot share the request's delivery
        # round).
        ctx.bus.round(2)
        stats: list[EncryptedNumber] = []
        for client in ctx.clients:
            chunk = own_stats if client.index == sup else replies[client.index]
            stats.extend(chunk)
        expected = len(identifiers) * (1 + len(gammas))
        if len(stats) != expected:
            raise ValueError(
                f"split statistics shape mismatch: expected {expected} "
                f"ciphertexts over {len(identifiers)} identifiers, "
                f"got {len(stats)}"
            )
        return stats

    # ------------------------------------------------------------------
    # model update: basic protocol (§4.1 "Model update")
    # ------------------------------------------------------------------

    def _split_basic(
        self,
        alpha: list[EncryptedNumber],
        gammas: list[list[EncryptedNumber]],
        available: list[list[int]],
        depth: int,
        identifiers: list[tuple[int, int, int]],
        best_index: SharedValue,
        node_stats: NodeStats,
        rows: list[list[SharedValue]],
        node_key: int,
    ) -> TreeNode:
        """Model update (§4.1): the split *owner* reacts on her own event
        loop — masks [α] (and the riding [γ]s) by her plaintext indicator,
        re-randomised (pooled masks, batched), and broadcasts both children
        plus the revealed threshold as a ``node-split``.  The super client
        either is the owner (she applies the split through her own runtime)
        or sends the owner a ``split-apply`` request and takes the children
        from the owner's reply like every other party.

        The opened index also picks the children's statistics: the winning
        row of ``rows`` is the left child's, the node's minus it the right
        child's.
        """
        ctx = self.ctx
        flat = int(ctx.engine.open(best_index))
        left_stats = self._node_stats(rows[flat])
        owner_idx, feature, split = identifiers[flat]
        ctx.revealed.append((f"best-split-d{depth}", (owner_idx, feature, split)))
        sup = ctx.super_client
        ride = 1 if self.provider.rides_with_alpha else 0
        if owner_idx == sup:
            body = ctx.runtimes[sup].apply_split(node_key, feature, split, ride)
            react_runtimes(ctx.runtimes, exclude=(sup,))
        else:
            ctx.bus.send_payload(
                sup,
                owner_idx,
                Request("split-apply", [node_key, feature, split, ride]),
                tag="mask-vector",
            )
            try:
                owner_runtime = ctx.runtimes[owner_idx]
                if owner_runtime is not None:
                    owner_runtime.react()
                reply = ctx.bus.receive(sup, tag="mask-vector")
                if not isinstance(reply, Request) or reply.op != "node-split":
                    raise ValueError(
                        f"expected a node-split reply from party "
                        f"{owner_idx}, got {reply!r}"
                    )
            except Exception:
                # The owner's node-split broadcast may already sit in peer
                # inboxes; restore the drained invariant on the error path
                # without charging a round the update never completed.
                ctx.bus.drain()
                raise
            body = list(reply.body)
            ctx.runtimes[sup].store_split(body)
            react_runtimes(ctx.runtimes, exclude=(sup, owner_idx))
        ctx.bus.round()
        _key, threshold, alpha_left, alpha_right, gam_left, gam_right = body
        gam_left = [list(g) for g in gam_left] or None
        gam_right = [list(g) for g in gam_right] or None

        node = TreeNode(
            is_leaf=False,
            depth=depth,
            n_samples=None,
            owner=owner_idx,
            feature=feature,
            global_feature=ctx.partition.global_feature_of(owner_idx, feature),
            threshold=threshold,
        )
        child_available = _child_available(
            available, owner_idx, feature, self.cfg.tree.remove_used_feature
        )
        node.left = self._build(
            list(alpha_left), gam_left, child_available, depth + 1,
            2 * node_key, left_stats,
        )
        node.right = self._build(
            list(alpha_right), gam_right, child_available, depth + 1,
            2 * node_key + 1, node_stats - left_stats,
        )
        return node

    # ------------------------------------------------------------------
    # model update: enhanced protocol (§5.2)
    # ------------------------------------------------------------------

    def _split_enhanced(
        self,
        alpha: list[EncryptedNumber],
        gammas: list[list[EncryptedNumber]],
        available: list[list[int]],
        depth: int,
        identifiers: list[tuple[int, int, int]],
        onehot: list[SharedValue],
        node_stats: NodeStats,
        rows: list[list[SharedValue]],
        node_key: int,
    ) -> TreeNode:
        ctx = self.ctx
        # The winning index stays hidden, so the left child's statistics
        # are selected obliviously: Σ_i onehot_i · rows[i], one batch of
        # Beaver multiplications (the one-hot entries are raw 0/1 — the
        # products are the statistics themselves, no rescale).
        width = len(rows[0])
        products = self.engine.mul_many(
            [(bit, stat) for bit, row in zip(onehot, rows) for stat in row]
        )
        left_stats = self._node_stats(
            [self.engine.sum_values(products[s::width]) for s in range(width)]
        )
        # Reveal only (i*, j*): per-feature sums of the one-hot vector open
        # to a single 1 at the winning feature; s* stays hidden.
        feature_groups: dict[tuple[int, int], list[int]] = {}
        for index, (ci, fj, _s) in enumerate(identifiers):
            feature_groups.setdefault((ci, fj), []).append(index)
        keys = list(feature_groups)
        sums = [
            ctx.engine.sum_values([onehot[i] for i in feature_groups[key]])
            for key in keys
        ]
        opened = ctx.engine.open_many(sums)
        winners = [key for key, bit in zip(keys, opened) if bit == 1]
        if len(winners) != 1:
            raise RuntimeError("one-hot feature reveal is inconsistent")
        owner_idx, feature = winners[0]
        ctx.revealed.append((f"best-feature-d{depth}", (owner_idx, feature)))
        owner = ctx.clients[owner_idx]
        lam_shares = [onehot[i] for i in feature_groups[(owner_idx, feature)]]

        # Encrypted selection vector [λ] (conversion of §5.2); λ is a raw
        # 0/1 vector, so it is encrypted at exponent 0.
        lam_cipher = [ctx.to_cipher(lam, exponent=0) for lam in lam_shares]

        # Private split selection (Theorem 2): [v] = V (x) [λ], one batched
        # fan-out over the n rows of the indicator matrix.
        matrix = owner.indicator_matrix(feature)  # n x n'
        v_left_enc = ctx.batch.batch_dot_products(
            [(list(row.astype(np.int64)), lam_cipher) for row in matrix]
        )
        ctx.bus.round()

        # Encrypted (and shared) split threshold.
        encoded_vals = [
            ctx.encoder.encode(float(t)).encoding
            for t in owner.split_values[feature]
        ]
        threshold_cipher = encrypted_dot_product(encoded_vals, lam_cipher)
        threshold_share = ctx.engine.sum_values(
            [lam * enc for lam, enc in zip(lam_shares, encoded_vals)]
        )

        # Encrypted mask-vector update (Eq. 10) for the left child; the
        # right child is the sibling by subtraction, [α] ⊖ [α_l] — the
        # plaintext of α·(1 − v), computed locally from two vectors every
        # party already holds.
        alpha_left = self._masked_elementwise_product(
            alpha, v_left_enc, bound_bits=self._alpha_bits
        )
        alpha_right = [a - left for a, left in zip(alpha, alpha_left)]
        gam_left = gam_right = None
        if self.provider.rides_with_alpha:
            gam_left = [
                self._masked_elementwise_product(g, v_left_enc) for g in gammas
            ]
            gam_right = [
                [y - left for y, left in zip(g, g_left)]
                for g, g_left in zip(gammas, gam_left)
            ]

        node = TreeNode(
            is_leaf=False,
            depth=depth,
            n_samples=None,
            owner=owner_idx,
            feature=feature,
            global_feature=ctx.partition.global_feature_of(owner_idx, feature),
            threshold=None,  # hidden (§5.2)
        )
        node.hidden["threshold_share"] = threshold_share
        node.hidden["threshold_cipher"] = threshold_cipher
        # The Eq. 10 flow is driven centrally (it already broadcasts the
        # combined [α'] under the eq10 tag), so the per-party event loops
        # have not stored the children — publish their node state
        # explicitly to keep the runtimes' stores coherent for the next
        # level's split-stats requests.
        sup = ctx.super_client
        for key, child_alpha, child_gammas in (
            (2 * node_key, alpha_left, gam_left),
            (2 * node_key + 1, alpha_right, gam_right),
        ):
            payload_gammas = (
                [list(g) for g in child_gammas]
                if child_gammas is not None
                else []
            )
            ctx.runtimes[sup].store_node(key, child_alpha, payload_gammas)
            broadcast_request(
                ctx.bus,
                sup,
                "node-state",
                [key, child_alpha, payload_gammas],
                tag="mask-vector",
                runtimes=ctx.runtimes,
            )
        ctx.bus.round()
        child_available = _child_available(
            available, owner_idx, feature, self.cfg.tree.remove_used_feature
        )
        node.left = self._build(
            alpha_left, gam_left, child_available, depth + 1,
            2 * node_key, left_stats,
        )
        node.right = self._build(
            alpha_right, gam_right, child_available, depth + 1,
            2 * node_key + 1, node_stats - left_stats,
        )
        return node

    def _masked_elementwise_product(
        self,
        alpha: list[EncryptedNumber],
        v_enc: list[EncryptedNumber],
        bound_bits: int | None = None,
    ) -> list[EncryptedNumber]:
        """Eq. (10): [α'_j] = [α_j · v_j] via MPC conversion.

        Each [α_j] is converted with Algorithm 2 kept over the integers
        (client 1 holds e - r_1, the others -r_i); every client multiplies
        her integer share into [v_j] homomorphically and the owner sums the
        results.  This is the O(n)·Cd term of the enhanced protocol (§6,
        §8.3.1).

        ``bound_bits`` declares ``|α_j| < 2**bound_bits`` for every
        element.  Declared elements are slot-packed exactly as in
        :func:`~repro.mpc.conversion.ciphers_to_shares` — masks of
        ``bound_bits + κ`` bits, one mask encryption per party and one
        threshold decryption per *packed* ciphertext (11 elements of a 0/1
        [α] at 512 bits).  An undeclared vector (a riding [γ]) keeps one
        ciphertext per element and masks of ``fx.k`` + exponent slack + κ
        bits, the width its fixed-point scale admits.  Either way an
        opened e_j wider than its masks raises
        :class:`~repro.mpc.conversion.MaskBoundError`.

        Bus flow (all real payloads, tag ``eq10``): clients 2..m send their
        mask-ciphertext vectors to client 1; the masked batch goes through
        the canonical threshold-decryption flow; every client sends her
        share-multiplied term vector to client 1, who broadcasts the
        combined [α'] (the children's mask vector every client needs for
        the next node's local statistics).
        """
        ctx, fx = self.ctx, self.fx
        m = ctx.n_clients
        pk = ctx.threshold.public_key
        packed = bound_bits is not None
        magnitudes = [
            bound_bits if packed else fx.k + max(0, -fx.f - a_ct.exponent)
            for a_ct in alpha
        ]
        bits_list = [beta + ctx.engine.kappa for beta in magnitudes]
        layout = mask_layout(bits_list, m, pk, packed)
        masks_by_party = [
            [secrets.randbits(bits) for bits in bits_list] for _ in range(m)
        ]
        mask_cts = [
            ctx.batch.encrypt_ciphertexts(layout.pack_plaintexts(masks))
            for masks in masks_by_party
        ]
        masked_cts = layout.pack_ciphertexts(
            [a_ct.ciphertext for a_ct in alpha], magnitudes
        )
        for party_cts in mask_cts:
            masked_cts = [
                masked + mask_ct for masked, mask_ct in zip(masked_cts, party_cts)
            ]
        for party in range(1, m):
            ctx.bus.send_payload(party, 0, mask_cts[party], tag="eq10")
        ctx.bus.round()
        plains = ctx.joint_decrypt_raw(masked_cts, tag="eq10", signed=False)
        ctx.conversions.threshold_decryptions += layout.n_groups
        opened = layout.unpack(plains, magnitudes, pk)
        result = []
        terms_by_party: list[list] = [[] for _ in range(m)]
        for e, beta, bits, masks, a_ct, v_ct in zip(
            opened, magnitudes, bits_list, zip(*masks_by_party), alpha, v_enc
        ):
            check_masked_opening(e + (1 << beta), bits, m)
            # Client 1's share is e - r_1, the others' -r_i: they raise
            # [-v_j] (one modular inverse) to r_i rather than [v_j] to the
            # full-size exponent n - r_i.
            combined = v_ct.ciphertext * (e - masks[0])
            terms_by_party[0].append(combined)
            negated = -v_ct.ciphertext
            for party in range(1, m):
                term = negated * masks[party]
                terms_by_party[party].append(term)
                combined = combined + term
            result.append(ctx.encoder.wrap(combined, a_ct.exponent + v_ct.exponent))
        for party in range(1, m):
            ctx.bus.send_payload(party, 0, terms_by_party[party], tag="eq10")
        ctx.bus.broadcast_payload(0, result, tag="eq10")
        ctx.bus.round(2)
        return result

    # ------------------------------------------------------------------
    # leaves
    # ------------------------------------------------------------------

    def _make_leaf(self, node_stats: NodeStats, depth: int) -> TreeNode:
        ctx, fx = self.ctx, self.fx
        leaf = TreeNode(is_leaf=True, depth=depth, n_samples=None)
        if self.task == "classification":
            totals = node_stats.totals
            if self._dp is not None:
                totals = [
                    t + self._dp.laplace_noise(sensitivity=1.0) for t in totals
                ]
            index, _, _ = fx.argmax(totals)
            label_share = index * (1 << fx.f)
            if self.enhanced:
                leaf.prediction = None
                leaf.hidden["label_share"] = label_share
                leaf.hidden["label_cipher"] = ctx.to_cipher(label_share)
            else:
                leaf.prediction = int(ctx.engine.open(index))
                ctx.revealed.append((f"leaf-label-d{depth}", leaf.prediction))
        else:
            sum_y = node_stats.totals[0]
            count = node_stats.n
            count_bits: int | None = self._count_bits
            if self._dp is not None:
                sum_y = sum_y + self._dp.laplace_noise(sensitivity=1.0)
                count = count + self._dp.laplace_noise(sensitivity=1.0)
                count_bits = None  # a noisy count has no structural bound
            mean_share = fx.div(sum_y, count, count_bits)
            if self.enhanced:
                leaf.prediction = None
                leaf.hidden["label_share"] = mean_share
                leaf.hidden["label_cipher"] = ctx.to_cipher(mean_share)
                leaf.hidden["label_scale"] = self.provider.label_scale
            else:
                mean = ctx.open_value(mean_share, tag=f"leaf-label-d{depth}")
                leaf.prediction = mean * self.provider.label_scale
        return leaf

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _mask_invalid_splits(self, splits: list[SplitStats]) -> None:
        """Force gains of splits violating min_samples_leaf to lose."""
        fx = self.fx
        minimum = fx.share(self.cfg.tree.min_samples_leaf)
        for split in splits:
            ok_left = 1 - fx.lt(split.n_left, minimum)
            ok_right = 1 - fx.lt(split.n_right, minimum)
            valid = self.engine.mul(ok_left, ok_right)
            # Zero out the child statistics of invalid splits: the gain
            # formulas then evaluate to the parent score (gain 0).
            pairs = []
            for value in [split.n_left, split.n_right, *split.left, *split.right]:
                pairs.append((value, valid))
            masked = self.engine.mul_many(pairs)
            split.n_left, split.n_right = masked[0], masked[1]
            count = len(split.left)
            split.left = masked[2 : 2 + count]
            split.right = masked[2 + count :]


class PivotDecisionTree(TreeTrainer):
    """Deprecated flat-API name for :class:`TreeTrainer`.

    Forwards unchanged (bit-identical models); new code uses the
    federation estimators, which add the party boundary and the
    protocol/dp/malicious switches in one place.
    """

    def __init__(self, context, label_provider=None):
        warnings.warn(
            "PivotDecisionTree is deprecated; use repro.federation."
            "PivotClassifier / PivotRegressor (or TreeTrainer directly)",
            DeprecationWarning,
            stacklevel=2,
        )
        super().__init__(context, label_provider)


def _child_available(
    available: list[list[int]], owner: int, feature: int, remove: bool
) -> list[list[int]]:
    if not remove:
        return available
    child = [list(f) for f in available]
    child[owner] = [f for f in child[owner] if f != feature]
    return child
