"""Distributed Paillier key generation — no dealer, no full key anywhere.

The paper (§3.4) assumes the m clients "jointly generate the keys" of the
threshold Paillier scheme but gives no protocol; the seed repo (and
libhcs, the paper's implementation) used a trusted dealer instead.  This
module replaces the dealer with a Boneh–Franklin style m-party protocol
(Boneh & Franklin, "Efficient generation of shared RSA keys", 1997, with
the Damgård–Jurik θ trick for the shared decryption exponent):

1. **Prime-share candidates.** Each party samples an additive share p_i
   of the candidate prime p (party 0's share forces the top bits so p has
   exactly ``keysize/2`` bits and is ≡ 3 mod 4; every other share is
   small and ≡ 0 mod 4).  For sieving, parties broadcast the residue
   vector ``[p_i mod ℓ]`` for the small primes ℓ ≤ 1024; everyone then
   *locally* computes ``sum(p_i) mod ℓ`` and agrees deterministically on
   pass/fail.  (The residues leak p_i mod ℓ — the standard, documented
   Boneh–Franklin trial-division leakage; the shares stay hidden.)
2. **Shared modulus via MtA.**  N = (Σp_i)(Σq_i) is computed without
   revealing any share: each party holds an *auxiliary* Paillier keypair
   (keysize + 192 bits, generated locally) and the cross terms p_i·q_j
   move as masked products under the host's auxiliary key (one
   multiply-to-add exchange per unordered pair).  Only the additive
   shares n_i of N are revealed; N = Σn_i is public anyway.
3. **Biprimality test.**  Party 0 broadcasts random g with Jacobi
   symbol 1; everyone broadcasts v_i = g^{(p_i+q_i)/4} (party 0 uses
   g^{(N+1-p_0-q_0)/4}) and accepts iff v_0 ≡ ±Π_{i≥1} v_i (mod N).
   A composite N survives one round with probability ≤ 1/2; we run 24.
4. **Shared decryption exponent.**  With φ = N+1-Σp_i-Σq_i shared
   additively (φ_0 = N+1-p_0-q_0, φ_i = -(p_i+q_i)), each party samples
   a random β_i and the parties compute integer additive shares d_i of
   d = φ·β via MtA under the auxiliary keys.  The public combination
   element θ = Σd_i mod N is revealed (it is uniformly masked by β);
   decryption shares are c^{d_i} mod N² and combination recovers
   L(Πc^{d_i})·θ⁻¹ = m, because c^{φβ} = 1 + m·θ·N (mod N²).
5. **Key-confirmation decrypt.**  The parties jointly decrypt a known
   test value under the new key; a mismatch (e.g. a composite N that
   slipped past the biprimality rounds) restarts from step 1.

No process ever materializes λ, µ, p or q: party i only ever knows
(p_i, q_i, β_i, d_i) plus the public (N, θ), so a bundle built from this
protocol has no dealer key for
:meth:`~repro.crypto.threshold.ThresholdPaillier.scrub_dealer` to drop.

:class:`KeygenParty` is a *pure state machine*: feed it received
messages, get back messages to send.  The network layer
(:func:`repro.network.flows.run_distributed_keygen` and the per-party
runtimes) moves the messages; the machine itself never touches a bus,
which is what lets the same code run in-process, behind a worker pipe,
or in a standalone party process.  All randomness is drawn from a
deterministic per-party stream seeded from ``(seed, index)`` so that
every deployment topology replays the identical transcript — the
deployment-parity matrix depends on this.  Crypto operations here use
the raw helpers (``encrypt_with_r``/``raw_encrypt``) so keygen does not
perturb the Ce/Cd counters that account for *training*.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro.crypto import primes
from repro.crypto.paillier import PaillierPublicKey, generate_keypair
from repro.crypto.threshold import ThresholdKeyShare

__all__ = [
    "BIPRIME_ROUNDS",
    "KEYGEN_TAG_PREFIX",
    "KeygenError",
    "KeygenMessage",
    "KeygenParty",
    "KeygenResult",
    "sieve_primes",
    "jacobi",
]

#: Every wire tag a keygen state machine emits starts with this prefix.
#: The bus driver (:func:`repro.network.flows.run_distributed_keygen`)
#: relies on it to tell keygen waves apart from foreign traffic — e.g. an
#: orchestrator's first control frame racing into a party's inbox before
#: her final wave has unblocked.
KEYGEN_TAG_PREFIX = "kg-"

#: Trial-division bound for the candidate sieve (residues of the shares
#: for every odd prime up to this bound are broadcast).
SIEVE_BOUND = 1024
#: Biprimality-test rounds; a composite survives all with prob. <= 2^-24.
BIPRIME_ROUNDS = 24
#: Bits of each party's blinding exponent beta_i.
BETA_BITS = 128
#: The auxiliary MtA keys are this many bits larger than the target key,
#: so masked products (phi + 2^keysize) * beta + r never wrap.
AUX_EXTRA_BITS = 192
#: Non-lead prime shares have keysize/2 - SMALL_SHARE_GAP bits, keeping
#: the candidate's byte width (and hence N's) independent of the draw.
SMALL_SHARE_GAP = 8
#: Known plaintext for the final key-confirmation joint decryption.
TEST_VALUE = 3_141_592_653


class KeygenError(RuntimeError):
    """The keygen protocol received an inconsistent or hostile message."""


def sieve_primes(bound: int = SIEVE_BOUND) -> tuple[int, ...]:
    """Odd primes up to ``bound`` (2 is skipped: p = Σp_i is odd by
    construction — one share ≡ 3 mod 4, the rest ≡ 0 mod 4)."""
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return tuple(i for i in range(3, bound + 1) if flags[i])


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs odd n > 0")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class KeygenMessage:
    """One message the state machine wants sent (receiver -1 = broadcast)."""

    receiver: int
    tag: str
    payload: Any


@dataclass(frozen=True)
class KeygenResult:
    """What one party walks away with: *her* share, never the key."""

    public_key: PaillierPublicKey
    share: ThresholdKeyShare = field(repr=False)
    theta: int
    n_parties: int
    rounds: int
    epochs: int  #: modulus candidates consumed (incl. the accepted one)


class KeygenParty:
    """Per-party state machine for the distributed keygen protocol.

    Drive it with :meth:`start` (once) and :meth:`receive` (per incoming
    message); both return the list of :class:`KeygenMessage` to put on
    the wire.  Progress is made only from received messages plus locally
    shared deterministic decisions (every party sees the same broadcasts
    and computes the same pass/fail verdicts), so the machine needs no
    scheduler — exactly the shape a reactive :class:`PartyRuntime` hosts.
    """

    def __init__(
        self,
        index: int,
        n_parties: int,
        keysize: int,
        seed: int | None = None,
        kappa: int = 40,
    ):
        if n_parties < 2:
            raise ValueError(f"distributed keygen needs >= 2 parties, got {n_parties}")
        if keysize % 2 or keysize < 64:
            raise ValueError(f"keysize must be even and >= 64, got {keysize}")
        if not 0 <= index < n_parties:
            raise ValueError(f"party index {index} outside 0..{n_parties - 1}")
        self.index = index
        self.m = n_parties
        self.keysize = keysize
        self.half = keysize // 2
        self._kappa = kappa
        # Deterministic per-party randomness: the whole keygen transcript
        # (candidate count, N, message bytes) is a pure function of
        # (seed, n_parties, keysize), which pins the parity matrix.
        self._rng = (
            random.Random(f"pivot-keygen:{seed}:{n_parties}:{keysize}:{index}")
            if seed is not None
            else random.Random()
        )
        self._sieve = sieve_primes()
        # The aux key only ever encrypts with caller-chosen r
        # (_aux_encrypt), never with the DJN obfuscator, so it does not need
        # random_prime_pair's p = q = 3 (mod 4); unconstrained draws keep
        # the seeded stream, and every transcript pinned to it, in place.
        aux_half = (keysize + AUX_EXTRA_BITS) // 2
        aux_p = aux_q = primes.random_prime(aux_half, self._rng)
        while aux_q == aux_p:
            aux_q = primes.random_prime(aux_half, self._rng)
        self._aux_pk, self._aux_sk = generate_keypair(
            keysize + AUX_EXTRA_BITS, aux_p, aux_q
        )
        self._aux_keys: dict[int, PaillierPublicKey] = {}
        self._waves: dict[tuple, dict[int, Any]] = {}
        self._phase = "init"
        self.rounds = 0
        self.epoch = 0
        self._kind = 0  # 0 = sieving p shares, 1 = q shares
        self._attempt = 0
        self._cand: int | None = None
        self._p: int | None = None
        self._q: int | None = None
        self._mta_responded = False
        self._mta_keep = 0
        self.N: int | None = None
        self._bp_round = 0
        self._bp_sent = -1
        self._dtry = 0
        self._beta: int | None = None
        self._phi: int | None = None
        self._d_responded = False
        self._d_keep = 0
        self._d_share: int | None = None
        self._theta: int | None = None
        self._test_sent = False
        self.result: KeygenResult | None = None

    # -- public surface ----------------------------------------------------

    @property
    def done(self) -> bool:
        return self.result is not None

    def start(self) -> list[KeygenMessage]:
        """Kick off: publish this party's auxiliary MtA public key."""
        if self._phase != "init":
            raise KeygenError("keygen already started")
        self._phase = "aux"
        out: list[KeygenMessage] = []
        self._bcast(out, "kg-aux", [self._aux_pk.n])
        out.extend(self._advance())
        return out

    def receive(self, sender: int, tag: str, payload: Any) -> list[KeygenMessage]:
        """Feed one incoming keygen message; returns messages to send."""
        if self.done:
            return []
        if self._phase == "init":
            raise KeygenError("keygen message before start()")
        if not 0 <= sender < self.m or sender == self.index:
            raise KeygenError(f"keygen message from impossible sender {sender}")
        key, body = self._parse(tag, payload)
        wave = self._waves.setdefault((tag, key), {})
        if sender in wave:
            raise KeygenError(f"duplicate {tag}{key} from party {sender}")
        wave[sender] = body
        return self._advance()

    def secret_summary(self) -> dict[str, bool]:
        """What secret material this process holds — for the no-full-key
        audit (a runtime's ``ctl-keyreport``).  Everything here is a
        *share*; λ/µ/p/q of the generated key exist nowhere."""
        return {
            "p_share": self._p is not None,
            "q_share": self._q is not None,
            "beta_share": self._beta is not None,
            "d_share": self._d_share is not None,
            "aux_private_key": self._aux_sk is not None,
            "full_private_key": False,
        }

    # -- message plumbing --------------------------------------------------

    def _bcast(self, out: list[KeygenMessage], tag: str, payload: list) -> None:
        """Broadcast and record our own contribution to the wave."""
        out.append(KeygenMessage(-1, tag, payload))
        key, body = self._parse(tag, payload)
        self._waves.setdefault((tag, key), {})[self.index] = body

    def _parse(self, tag: str, payload: Any) -> tuple[tuple, Any]:
        """Split a payload into its wave key and body."""
        try:
            if tag == "kg-aux":
                return (), payload[0]
            if tag == "kg-cand":
                return (payload[0], payload[1], payload[2]), payload[3]
            if tag in ("kg-enc", "kg-mta"):
                return (payload[0],), payload[1:]
            if tag in ("kg-nshare", "kg-test", "kg-testshare"):
                return (payload[0],), payload[1]
            if tag in ("kg-bpg", "kg-bpv"):
                return (payload[0], payload[1]), payload[2]
            if tag in ("kg-denc", "kg-dmta", "kg-theta"):
                # Keyed by (epoch, dtry): a restarted candidate must not
                # collide with the previous epoch's exponent waves.
                return (payload[0], payload[1]), payload[2]
        except (TypeError, IndexError) as exc:
            raise KeygenError(f"malformed {tag} payload") from exc
        raise KeygenError(f"unknown keygen tag {tag!r}")

    def _wave(self, tag: str, key: tuple) -> dict[int, Any]:
        return self._waves.setdefault((tag, key), {})

    def _full(self, tag: str, key: tuple) -> bool:
        return len(self._wave(tag, key)) == self.m

    # -- state machine -----------------------------------------------------

    def _advance(self) -> list[KeygenMessage]:
        out: list[KeygenMessage] = []
        while not self.done and self._step(out):
            pass
        return out

    def _step(self, out: list[KeygenMessage]) -> bool:
        return {
            "aux": self._step_aux,
            "sieve": self._step_sieve,
            "mta": self._step_mta,
            "nshare": self._step_nshare,
            "biprime": self._step_biprime,
            "dshare": self._step_dshare,
            "theta": self._step_theta,
            "test": self._step_test,
        }[self._phase](out)

    # phase: exchange auxiliary public keys -------------------------------

    def _step_aux(self, out: list[KeygenMessage]) -> bool:
        if not self._full("kg-aux", ()):
            return False
        self.rounds += 1
        self._aux_keys = {
            i: PaillierPublicKey(n) for i, n in self._wave("kg-aux", ()).items()
        }
        self._phase = "sieve"
        self._sample_candidate(out)
        return True

    # phase: sieve additive prime-share candidates ------------------------

    def _sample_candidate(self, out: list[KeygenMessage]) -> None:
        if self.index == 0:
            # Lead share: exact top bits (so p has exactly `half` bits and
            # N exactly `keysize`) and ≡ 3 (mod 4).
            base = 3 << (self.half - 2)
            offset = self._rng.getrandbits(self.half - 3) & ~3
            self._cand = base + offset + 3
        else:
            # Small share, ≡ 0 (mod 4); the gap keeps Σ shares inside the
            # lead share's top-bit envelope for any realistic m.
            self._cand = self._rng.getrandbits(self.half - SMALL_SHARE_GAP) & ~3
        residues = [self._cand % ell for ell in self._sieve]
        self._bcast(
            out, "kg-cand", [self.epoch, self._kind, self._attempt, residues]
        )

    def _step_sieve(self, out: list[KeygenMessage]) -> bool:
        key = (self.epoch, self._kind, self._attempt)
        if not self._full("kg-cand", key):
            return False
        self.rounds += 1
        vectors = self._wave("kg-cand", key)
        ok = True
        for pos, ell in enumerate(self._sieve):
            if sum(v[pos] for v in vectors.values()) % ell == 0:
                ok = False
                break
        if not ok:
            self._attempt += 1
            self._sample_candidate(out)
            return True
        if self._kind == 0:
            self._p = self._cand
            self._kind = 1
            self._attempt = 0
            self._sample_candidate(out)
            return True
        self._q = self._cand
        self._phase = "mta"
        self._mta_responded = False
        self._mta_keep = 0
        self._bcast(
            out,
            "kg-enc",
            [
                self.epoch,
                self._aux_encrypt(self._aux_pk, self._p),
                self._aux_encrypt(self._aux_pk, self._q),
            ],
        )
        return True

    # phase: multiply-to-add the cross terms of N = (Σp_i)(Σq_i) ---------

    def _step_mta(self, out: list[KeygenMessage]) -> bool:
        key = (self.epoch,)
        if not self._mta_responded:
            if not self._full("kg-enc", key):
                return False
            self.rounds += 1
            encs = self._wave("kg-enc", key)
            # One MtA per unordered pair {host < responder}: the host
            # learns (p_h·q_r + r1) + (q_h·p_r + r2), the responder keeps
            # -(r1 + r2); both cross products of the pair ride together.
            for host in range(self.index):
                enc_p, enc_q = encs[host]
                hpk = self._aux_keys[host]
                r1 = self._rng.getrandbits(self.keysize + self._kappa)
                r2 = self._rng.getrandbits(self.keysize + self._kappa)
                resp_p = (
                    pow(enc_p, self._q, hpk.n_squared)
                    * self._aux_encrypt(hpk, r1)
                ) % hpk.n_squared
                resp_q = (
                    pow(enc_q, self._p, hpk.n_squared)
                    * self._aux_encrypt(hpk, r2)
                ) % hpk.n_squared
                self._mta_keep -= r1 + r2
                out.append(
                    KeygenMessage(host, "kg-mta", [self.epoch, resp_p, resp_q])
                )
            self._mta_responded = True
            return True
        expected = set(range(self.index + 1, self.m))
        if set(self._wave("kg-mta", key)) != expected:
            return False
        self.rounds += 1
        n_share = self._p * self._q + self._mta_keep
        for resp_p, resp_q in self._wave("kg-mta", key).values():
            n_share += self._aux_sk.raw_decrypt(resp_p)
            n_share += self._aux_sk.raw_decrypt(resp_q)
        self._phase = "nshare"
        self._bcast(out, "kg-nshare", [self.epoch, n_share])
        return True

    def _step_nshare(self, out: list[KeygenMessage]) -> bool:
        key = (self.epoch,)
        if not self._full("kg-nshare", key):
            return False
        self.rounds += 1
        candidate = sum(self._wave("kg-nshare", key).values())
        if candidate.bit_length() != self.keysize or candidate % 2 == 0:
            raise KeygenError(
                f"modulus candidate has {candidate.bit_length()} bits, "
                f"expected exactly {self.keysize} (corrupt share?)"
            )
        self.N = candidate
        self._phase = "biprime"
        self._bp_round = 0
        self._bp_sent = -1
        if self.index == 0:
            self._emit_bpg(out)
        return True

    # phase: joint biprimality test ---------------------------------------

    def _emit_bpg(self, out: list[KeygenMessage]) -> None:
        while True:
            g = self._rng.randrange(2, self.N)
            if jacobi(g, self.N) == 1:
                break
        self._bcast(out, "kg-bpg", [self.epoch, self._bp_round, g])

    def _step_biprime(self, out: list[KeygenMessage]) -> bool:
        key = (self.epoch, self._bp_round)
        g_wave = self._wave("kg-bpg", key)
        if self._bp_sent < self._bp_round:
            if 0 not in g_wave:
                return False
            g = g_wave[0]
            if self.index == 0:
                exponent = (self.N + 1 - self._p - self._q) // 4
            else:
                exponent = (self._p + self._q) // 4
            self._bp_sent = self._bp_round
            self.rounds += 1
            self._bcast(
                out, "kg-bpv", [self.epoch, self._bp_round, pow(g, exponent, self.N)]
            )
            return True
        if not self._full("kg-bpv", key):
            return False
        self.rounds += 1
        values = self._wave("kg-bpv", key)
        rest = 1
        for i in range(1, self.m):
            rest = rest * values[i] % self.N
        if values[0] != rest and values[0] != self.N - rest:
            self._next_epoch(out)  # composite: try a fresh candidate
            return True
        self._bp_round += 1
        if self._bp_round < BIPRIME_ROUNDS:
            if self.index == 0:
                self._emit_bpg(out)
            return True
        self._enter_dshare(out)
        return True

    def _next_epoch(self, out: list[KeygenMessage]) -> None:
        self.epoch += 1
        self._kind = 0
        self._attempt = 0
        self._dtry = 0
        self._p = self._q = self.N = None
        self._mta_responded = False
        self._mta_keep = 0
        self._test_sent = False
        self._phase = "sieve"
        self._sample_candidate(out)

    # phase: share the decryption exponent d = phi(N) * beta --------------

    def _enter_dshare(self, out: list[KeygenMessage]) -> None:
        self._phase = "dshare"
        self._beta = self._rng.getrandbits(BETA_BITS) | 1
        if self.index == 0:
            self._phi = self.N + 1 - self._p - self._q
        else:
            self._phi = -(self._p + self._q)
        self._d_responded = False
        self._d_keep = 0
        # The shift keeps the MtA plaintext positive: |phi_i| < N < 2^keysize.
        shift = 1 << self.keysize
        self._bcast(
            out,
            "kg-denc",
            [self.epoch, self._dtry, self._aux_encrypt(self._aux_pk, self._phi + shift)],
        )

    def _step_dshare(self, out: list[KeygenMessage]) -> bool:
        key = (self.epoch, self._dtry)
        shift = 1 << self.keysize
        if not self._d_responded:
            if not self._full("kg-denc", key):
                return False
            self.rounds += 1
            encs = self._wave("kg-denc", key)
            # Every ordered pair runs: host h's (phi_h + shift) times my
            # beta; I keep -(r + shift*beta) so the shift cancels exactly.
            for host in range(self.m):
                if host == self.index:
                    continue
                hpk = self._aux_keys[host]
                r = self._rng.getrandbits(self.keysize + 1 + BETA_BITS + self._kappa)
                resp = (
                    pow(encs[host], self._beta, hpk.n_squared)
                    * self._aux_encrypt(hpk, r)
                ) % hpk.n_squared
                self._d_keep -= r + shift * self._beta
                out.append(
                    KeygenMessage(host, "kg-dmta", [self.epoch, self._dtry, resp])
                )
            self._d_responded = True
            return True
        expected = set(range(self.m)) - {self.index}
        if set(self._wave("kg-dmta", key)) != expected:
            return False
        self.rounds += 1
        d_share = self._phi * self._beta + self._d_keep
        for resp in self._wave("kg-dmta", key).values():
            d_share += self._aux_sk.raw_decrypt(resp)
        self._d_share = d_share
        self._phase = "theta"
        self._bcast(out, "kg-theta", [self.epoch, self._dtry, d_share % self.N])
        return True

    def _step_theta(self, out: list[KeygenMessage]) -> bool:
        key = (self.epoch, self._dtry)
        if not self._full("kg-theta", key):
            return False
        self.rounds += 1
        theta = sum(self._wave("kg-theta", key).values()) % self.N
        if math.gcd(theta, self.N) != 1:
            # theta must be invertible mod N; all parties see the same
            # theta, agree, and rerun the beta phase deterministically.
            self._dtry += 1
            self._enter_dshare(out)
            return True
        self._theta = theta
        self._phase = "test"
        self._test_sent = False
        if self.index == 0:
            pk = PaillierPublicKey(self.N)
            r = self._rand_unit(self.N)
            raw = (
                pk.raw_encrypt(TEST_VALUE) * pow(r, self.N, pk.n_squared)
            ) % pk.n_squared
            self._bcast(out, "kg-test", [self.epoch, raw])
        return True

    # phase: key-confirmation joint decryption ----------------------------

    def _step_test(self, out: list[KeygenMessage]) -> bool:
        key = (self.epoch,)
        test_wave = self._wave("kg-test", key)
        if not self._test_sent:
            if 0 not in test_wave:
                return False
            self.rounds += 1
            c = test_wave[0]
            if math.gcd(c, self.N) != 1:
                self._next_epoch(out)  # c would factor N; candidate is junk
                return True
            n_squared = self.N * self.N
            self._test_sent = True
            self._bcast(
                out, "kg-testshare", [self.epoch, pow(c, self._d_share, n_squared)]
            )
            return True
        if not self._full("kg-testshare", key):
            return False
        self.rounds += 1
        n_squared = self.N * self.N
        acc = 1
        for value in self._wave("kg-testshare", key).values():
            acc = acc * value % n_squared
        recovered = -1
        if (acc - 1) % self.N == 0:
            recovered = (
                (acc - 1) // self.N * pow(self._theta, -1, self.N) % self.N
            )
        if recovered != TEST_VALUE:
            self._next_epoch(out)  # biprimality false-accept: start over
            return True
        public_key = PaillierPublicKey(self.N)
        self.result = KeygenResult(
            public_key=public_key,
            share=ThresholdKeyShare(public_key, self.index, self._d_share),
            theta=self._theta,
            n_parties=self.m,
            rounds=self.rounds,
            epochs=self.epoch + 1,
        )
        return False

    # -- helpers -----------------------------------------------------------

    def _rand_unit(self, n: int) -> int:
        while True:
            r = self._rng.randrange(1, n)
            if math.gcd(r, n) == 1:
                return r

    def _aux_encrypt(self, pk: PaillierPublicKey, value: int) -> int:
        """Deterministically-randomized aux encryption (raw ciphertext).

        Uses the machine's seeded stream — not ``secrets`` — so the whole
        transcript replays identically in every topology, and bypasses
        ``encrypt``'s Ce counter: auxiliary MtA work is keygen overhead,
        not part of the protocols' Table-2 accounting.
        """
        return pk.encrypt_with_r(value, self._rand_unit(pk.n)).raw
