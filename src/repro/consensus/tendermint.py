"""Tendermint-style BFT consensus.

The paper's prototype integrates Tendermint as a subnet engine (§VI).  This
is an event-driven implementation of the core algorithm from Buchman, Kwon &
Milosevic, "The latest gossip on BFT consensus" (arXiv:1807.04938):

- heights decided sequentially; each height runs rounds ``r = 0, 1, …``;
- the proposer of ``(h, r)`` is ``validators[(h + r) mod n]``;
- steps: PROPOSE → PREVOTE → PRECOMMIT with per-step timeouts;
- a *polka* (>2/3 prevotes for one block) locks the validator on that block;
- >2/3 precommits for a block commit it (instant finality);
- nil votes and round changes handle faulty/slow proposers.

Byzantine behaviours available for experiments: ``withhold_vote``,
``withhold_block`` and ``equivocate_vote`` (double-voting, which produces
the evidence used for slashing in checkpoint fraud proofs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.cid import CID
from repro.chain.block import FullBlock
from repro.consensus.base import ConsensusEngine, register_engine

PROPOSE, PREVOTE, PRECOMMIT = "propose", "prevote", "precommit"


@dataclass(frozen=True, slots=True)
class Vote:
    """A prevote or precommit.  ``block_cid`` of None is a nil vote."""

    height: int
    round: int
    vote_type: str
    block_cid: Optional[CID]
    voter: str

    def to_canonical(self):
        cid = self.block_cid.to_canonical() if self.block_cid else None
        return (self.height, self.round, self.vote_type, cid, self.voter)


@register_engine
class TendermintEngine(ConsensusEngine):
    """Propose/prevote/precommit BFT with locking and round changes."""

    NAME = "tendermint"
    SUPPORTS_FORKS = False
    INSTANT_FINALITY = True

    def __init__(self, sim, node, validators, params) -> None:
        super().__init__(sim, node, validators, params)
        self.height = 0
        self.round = 0
        self.step = PROPOSE
        self.locked_cid: Optional[CID] = None
        self.locked_round = -1
        self._proposals: dict[tuple, FullBlock] = {}  # (h, r) -> block
        self._valid_rounds: dict[tuple, int] = {}  # (h, r) -> claimed vr
        self._blocks: dict[CID, FullBlock] = {}
        self._prevotes: dict[tuple, dict] = {}  # (h, r) -> voter -> cid/None
        self._precommits: dict[tuple, dict] = {}
        self._equivocations: list[tuple] = []  # (voter, vote_a, vote_b)
        # Future-height traffic buffer: a lagging validator must not drop
        # votes/proposals for heights it has not reached — peers GC their
        # books after committing and never re-send (the catch-up problem
        # block sync solves in production Tendermint).
        self._future: dict[int, list] = {}  # height -> [(kind, payload, sender)]
        self._height_started_at = sim.now  # block-interval pacing reference

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self.height = self.node.head().height + 1
        self._height_started_at = self.sim.now
        self._start_round(0)

    def proposer_for(self, height: int, round_: int):
        return self.validators.round_robin(height + round_)

    def _start_round(self, round_: int, skipped: bool = False) -> None:
        if not self.running:
            return
        self.round = round_
        self.step = PROPOSE
        proposer = self.proposer_for(self.height, round_)
        self._metric("consensus.*.rounds").inc()
        self._trace_round(
            "round_skip" if skipped else "round_start",
            height=self.height, round=round_, proposer=proposer.node_id,
            quorum=self.validators.quorum_power,
            total=self.validators.total_power,
        )
        height = self.height
        if proposer.node_id == self.node.node_id:
            self._propose()
        if self.height != height:
            return  # our own proposal completed the height synchronously
        # Whether or not we are the proposer, arm the propose timeout.
        self._schedule_timeout(PROPOSE, height, round_)
        if self.step == PROPOSE and self.round == round_:
            # A proposal for this round may already sit in the book (we
            # arrived via round skip while peers were further along) —
            # act on it now instead of waiting out the propose timeout.
            stored = self._proposals.get((height, round_))
            if stored is not None:
                self._prevote_proposal(
                    stored, self._valid_rounds.get((height, round_))
                )

    def _propose(self) -> None:
        if self.node.is_byzantine("withhold_block"):
            self._metric("consensus.*.withheld").inc()
            return
        head = self.node.head()
        valid_round = None
        if self.locked_cid is not None and self.locked_cid in self._blocks:
            # Repropose the locked block.  It carries its ORIGINAL
            # proposer's miner address, so the payload must also carry the
            # round it was first proposed in (the algorithm's validRound):
            # peers verify eligibility against that round's proposer.
            # Without this, a locked validator's reproposal is rejected by
            # everyone — including itself — and a round-0 lock split
            # (two lock, two precommit nil after a lossy polka) livelocks
            # the height forever: fresh proposals never gather the locked
            # validators' prevotes, and the locked block can never return.
            block = self._blocks[self.locked_cid]
            valid_round = min(
                (r for (h, r) in self._proposals
                 if h == self.height and self._proposals[(h, r)].cid == block.cid),
                default=self.locked_round,
            )
        else:
            block = self.node.assemble_block(
                height=self.height,
                parent_cid=head.cid,
                consensus_data={"engine": self.NAME, "round": self.round},
            )
        self._metric("consensus.*.proposed").inc()
        self._trace_round(
            "propose", height=self.height, round=self.round,
            cid=block.cid.hex()[:16],
        )
        payload = {"height": self.height, "round": self.round, "block": block}
        if valid_round is not None:
            payload["valid_round"] = valid_round
        self._on_proposal(payload, self.node.node_id)
        self.node.broadcast("tm:proposal", payload)

    # ------------------------------------------------------------------
    # Timeouts
    # ------------------------------------------------------------------
    def _schedule_timeout(self, step: str, height: int, round_: int) -> None:
        delay = self.params.timeout_propose if step == PROPOSE else self.params.timeout_vote
        # Linear back-off keeps lagging validators able to catch up.
        delay *= 1 + 0.5 * round_
        self.sim.schedule(
            delay, self._on_timeout, step, height, round_,
            label=f"tm:timeout:{step}",
        )

    def _on_timeout(self, step: str, height: int, round_: int) -> None:
        if not self.running or height != self.height or round_ != self.round:
            return  # stale timeout from an older height/round
        if step != self.step:
            return  # the step this timeout guarded already completed
        self._trace_round("timeout", height=height, round=round_, step=step)
        if step == PRECOMMIT:
            self._start_round(round_ + 1)
            return
        # No acceptable proposal (or no polka): vote nil in the next step.
        # The step transition happens BEFORE the vote is cast: _cast_vote
        # self-delivers synchronously and may advance the round or commit
        # the height — assigning self.step afterwards would clobber that
        # fresh state with a stale one (see _check_polka).
        next_step = PREVOTE if step == PROPOSE else PRECOMMIT
        self.step = next_step
        self._schedule_timeout(next_step, height, round_)
        self._cast_vote(next_step, None)

    # ------------------------------------------------------------------
    # Voting
    # ------------------------------------------------------------------
    def _cast_vote(self, vote_type: str, block_cid: Optional[CID]) -> None:
        if not self.validators.contains(self.node.node_id):
            return  # observers do not vote
        if self.node.is_byzantine("withhold_vote"):
            self._metric("consensus.*.votes_withheld").inc()
            return
        vote = Vote(self.height, self.round, vote_type, block_cid, self.node.node_id)
        self._on_vote(vote)
        self.node.broadcast("tm:vote", vote)
        if self.node.is_byzantine("equivocate_vote") and block_cid is not None:
            # Double-vote: also vote nil for the same (h, r, type).
            conflicting = Vote(self.height, self.round, vote_type, None, self.node.node_id)
            self._metric("consensus.*.equivocations_sent").inc()
            self.node.broadcast("tm:vote", conflicting)

    def _vote_book(self, vote_type: str, height: int, round_: int) -> dict:
        book = self._prevotes if vote_type == PREVOTE else self._precommits
        return book.setdefault((height, round_), {})

    def _record_vote(self, vote: Vote) -> bool:
        """Store the vote; detect and log equivocation; returns acceptance."""
        if not self.validators.contains(vote.voter):
            return False
        book = self._vote_book(vote.vote_type, vote.height, vote.round)
        existing = book.get(vote.voter, _ABSENT)
        if existing is not _ABSENT:
            if existing != vote.block_cid:
                self._equivocations.append((vote.voter, existing, vote.block_cid))
                self._metric("consensus.*.equivocations_observed").inc()
            return False  # first vote stands
        book[vote.voter] = vote.block_cid
        return True

    def _tally(self, vote_type: str, height: int, round_: int) -> dict:
        """Map block_cid (or None) → accumulated voting power."""
        book = self._vote_book(vote_type, height, round_)
        power: dict = {}
        for voter, cid in book.items():
            validator = self.validators.by_node(voter)
            power[cid] = power.get(cid, 0) + validator.power
        return power

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, kind: str, payload: Any, sender: str) -> None:
        if kind == "tm:commit":
            # Commit certificates bypass the future-height buffer *and* the
            # running guard: they are exactly how a validator stuck at an
            # old height catches up, including a restarted node whose
            # engine is paused until its head is fresh (certificates reach
            # it eagerly or replayed through IHAVE/IWANT repair).  Round
            # state stays quiet — _begin_height no-ops while stopped.
            self._on_commit_cert(payload, sender)
            return
        if not self.running:
            return
        height = payload["height"] if kind == "tm:proposal" else getattr(payload, "height", None)
        if height is not None and height > self.height:
            if height <= self.height + 100:  # bounded buffer
                self._future.setdefault(height, []).append((kind, payload, sender))
            return
        self._deliver(kind, payload, sender)

    def _deliver(self, kind: str, payload: Any, sender: str) -> None:
        if kind == "tm:proposal":
            self._on_proposal(payload, sender)
        elif kind == "tm:vote":
            self._on_vote(payload)

    def _on_proposal(self, payload: dict, sender: str) -> None:
        height, round_, block = payload["height"], payload["round"], payload["block"]
        if height != self.height:
            return
        valid_round = payload.get("valid_round")
        if valid_round is not None and 0 <= valid_round < round_:
            # Reproposal: the block header binds its ORIGINAL proposer, so
            # eligibility is checked against the round it was first
            # proposed in.  No weaker than the base rule — the claimed
            # (height, valid_round) pins exactly one expected miner.
            expected = self.proposer_for(height, valid_round)
        else:
            valid_round = None
            expected = self.proposer_for(height, round_)
        if block.header.miner != expected.address:
            self._metric("consensus.*.rejected").inc()
            return
        self._proposals[(height, round_)] = block
        self._blocks[block.cid] = block
        if valid_round is not None:
            self._valid_rounds[(height, round_)] = valid_round
        self._trace_round(
            "proposal", height=height, round=round_,
            proposer=self.proposer_for(height, round_).node_id,
            cid=block.cid.hex()[:16],
        )
        if round_ != self.round or self.step != PROPOSE:
            return
        self._prevote_proposal(block, valid_round)

    def _has_polka(self, cid: CID, round_: int) -> bool:
        """Did >2/3 prevote power endorse *cid* at (height, round_)?"""
        tally = self._tally(PREVOTE, self.height, round_)
        return tally.get(cid, 0) >= self.validators.quorum_power

    def _prevote_proposal(self, block: FullBlock, valid_round=None) -> None:
        """Prevote an acceptable proposal for the current (height, round).

        Locking rule: if locked, only prevote the locked block — unless the
        proposal is a reproposal carrying ``valid_round >= locked_round``
        whose polka we can verify in our own prevote book (arXiv:1807.04938
        line 28-30): a later polka supersedes an earlier lock.  The step
        advances and the prevote timeout arms *before* the vote is cast —
        our own vote is processed synchronously and may complete a polka
        (or even the commit) on the spot; mutating state afterwards would
        clobber it.
        """
        height, round_ = self.height, self.round
        self.step = PREVOTE
        self._schedule_timeout(PREVOTE, height, round_)
        if self.locked_cid is not None and block.cid != self.locked_cid:
            if (
                valid_round is not None
                and valid_round >= self.locked_round
                and self._has_polka(block.cid, valid_round)
            ):
                self._cast_vote(PREVOTE, block.cid)
            else:
                self._cast_vote(PREVOTE, self.locked_cid)
        else:
            self._cast_vote(PREVOTE, block.cid)

    def _on_vote(self, vote: Vote) -> None:
        if vote.height != self.height:
            return
        if not self._record_vote(vote):
            return
        self._trace_round(
            "vote", height=vote.height, round=vote.round,
            vote_type=vote.vote_type, voter=vote.voter,
            power=self.validators.by_node(vote.voter).power,
            cid=vote.block_cid.hex()[:16] if vote.block_cid else None,
        )
        if vote.round > self.round and self._maybe_skip_round(vote.round):
            return  # _start_round already re-evaluated the books
        if vote.vote_type == PREVOTE:
            self._check_polka(vote.round)
        else:
            self._check_commit(vote.round)

    def _maybe_skip_round(self, round_: int) -> bool:
        """The Tendermint round catch-up rule (arXiv:1807.04938, line 55).

        On f+1 voting power messaging at a round ahead of ours, honest
        validators are there and ours is stale — StartRound(round).
        Without this a loss window can phase-shift validators' locally
        clocked timeouts so no round ever gathers a quorum: each stays in
        its own cadence forever, even after the links heal (the
        lossy-links liveness stall).  Commit-certificate catch-up cannot
        repair this — it only helps once *someone* commits.
        """
        if self.step == "commit-wait" or round_ <= self.round:
            return False
        voters = set(self._prevotes.get((self.height, round_), ()))
        voters.update(self._precommits.get((self.height, round_), ()))
        if (self.height, round_) in self._proposals:
            voters.add(self.proposer_for(self.height, round_).node_id)
        if self.validators.power_of(voters) < (
            self.validators.total_power // 3 + 1
        ):
            return False
        self._metric("consensus.*.round_skips").inc()
        height = self.height
        self._start_round(round_, skipped=True)
        if self.height != height:
            return True  # the stored proposal carried us through a commit
        # Re-run quorum checks against the already-recorded books: the
        # polka (or commit) we were missing may be sitting there complete.
        if self.step == PREVOTE:
            self._check_polka(round_)
        if self.height == height and self.step == PRECOMMIT:
            self._check_commit(round_)
        return True

    def _check_polka(self, round_: int) -> None:
        """On >2/3 prevotes for one block at the current round: lock+precommit."""
        if round_ != self.round or self.step != PREVOTE:
            return
        tally = self._tally(PREVOTE, self.height, round_)
        quorum = self.validators.quorum_power
        for cid, power in tally.items():
            if power >= quorum:
                # Advance the step and arm the timeout BEFORE casting: our
                # own precommit is delivered synchronously and can complete
                # the commit quorum, whose _commit resets round/step for
                # the next height — assignments placed after _cast_vote
                # would overwrite that reset with a stale step, leaving the
                # engine wedged at round -1 (the commit-wait pace guard
                # never matches again).
                self.step = PRECOMMIT
                self._schedule_timeout(PRECOMMIT, self.height, round_)
                if cid is not None:
                    self.locked_cid = cid
                    self.locked_round = round_
                    self._trace_round(
                        "lock", height=self.height, round=round_,
                        cid=cid.hex()[:16],
                    )
                self._cast_vote(PRECOMMIT, cid)
                return

    def _check_commit(self, round_: int) -> None:
        """On >2/3 precommits for one block at any round of this height: commit."""
        tally = self._tally(PRECOMMIT, self.height, round_)
        quorum = self.validators.quorum_power
        for cid, power in tally.items():
            if cid is not None and power >= quorum:
                block = self._blocks.get(cid)
                if block is None:
                    return  # wait for the proposal to arrive
                self._commit(block)
                return
        # >2/3 nil precommits: move to the next round immediately.
        if tally.get(None, 0) >= quorum and round_ == self.round and self.step == PRECOMMIT:
            self._start_round(round_ + 1)

    # ------------------------------------------------------------------
    # Commit certificates (straggler catch-up)
    # ------------------------------------------------------------------
    # A validator that misses the precommit quorum for a height is stuck:
    # peers GC their vote books after committing and never re-send, so
    # without help it rounds forever at a height everyone else has left
    # (the catch-up problem production Tendermint solves with block sync).
    # On every commit we therefore broadcast the block together with its
    # >2/3 precommit set; a lagging validator verifies the certificate,
    # adopts the block, and jumps to the chain head.  Gossip's lazy
    # IHAVE/IWANT repair replays recent certificates to nodes that were
    # partitioned or crashed when they were first published.
    def _commit_certificate(self, block: FullBlock) -> tuple:
        votes = []
        for (height, round_), book in self._precommits.items():
            if height != block.height:
                continue
            for voter, cid in book.items():
                if cid == block.cid:
                    votes.append(Vote(height, round_, PRECOMMIT, cid, voter))
        # Canonical order (one vote per voter stands, per _record_vote).
        return tuple(sorted(votes, key=lambda v: (v.round, v.voter)))

    def _verify_commit_cert(self, block: FullBlock, votes) -> bool:
        power = 0
        seen = set()
        for vote in votes:
            if (
                vote.vote_type != PRECOMMIT
                or vote.height != block.height
                or vote.block_cid != block.cid
                or vote.voter in seen
                or not self.validators.contains(vote.voter)
            ):
                return False
            seen.add(vote.voter)
            power += self.validators.by_node(vote.voter).power
        return power >= self.validators.quorum_power

    def _on_commit_cert(self, payload: dict, sender: str) -> None:
        block: FullBlock = payload["block"]
        votes = payload["votes"]
        if not self._verify_commit_cert(block, votes):
            self._metric("consensus.*.rejected").inc()
            return
        if block.height < self.height:
            return  # already decided locally
        if block.height == self.height:
            # Our working height: commit through the ordinary path so the
            # block-interval pacing stays identical to a self-commit (a
            # zero-delay jump here would let fast peers drag followers
            # ahead of the paced schedule and desynchronise rounds).
            self._commit(block, cert=votes)
            return
        # Strictly ahead: we are at least one full height behind.
        self._observe_block_interval(block)
        self.node.receive_block(block, final=True, sender=sender)
        head = self.node.head()
        if head.height + 1 <= self.height:
            # An orphaned future block: its ancestors never committed
            # here.  The node parked it and is fetching the gap from
            # whoever sent the certificate; the orphan cascade then lands
            # this block too, and a later certificate moves the engine.
            return
        # Jump to the head the certificate (plus any retried orphans)
        # established and rejoin consensus at the next height.
        self._metric("consensus.*.caught_up").inc()
        self._gc_height(head.height)
        self._height_started_at = self.sim.now
        self._await_height(head.height + 1, pacing=0.0)

    def _await_height(self, height: int, pacing: float) -> None:
        """Leave the decided height behind; begin *height* after *pacing*."""
        self.height = height
        self.locked_cid = None
        self.locked_round = -1
        self.round = -1
        self.step = "commit-wait"
        self.sim.schedule(pacing, self._begin_height, height, label="tm:pace")

    def _commit(self, block: FullBlock, cert: Optional[tuple] = None) -> None:
        self._observe_block_interval(block)
        self.node.receive_block(block, final=True)
        self._metric("consensus.*.committed").inc()
        # Re-broadcast the certificate we received, or build one from our
        # own precommit book (a commit reached via peer certificate may
        # hold fewer than quorum local precommits).  A stopped engine
        # (catching up before a restart resume) stays silent.
        if self.running:
            self.node.broadcast(
                "tm:commit",
                {"block": block, "votes": cert or self._commit_certificate(block)},
            )
        self.sim.metrics.histogram(
            "consensus.*.commit_round", self.node.subnet_id
        ).observe(self.round)
        self._trace_round(
            "commit", height=block.height, round=max(self.round, 0),
            cid=block.cid.hex()[:16],
        )
        # Clean up and move to the next height, pacing to the target block
        # interval (Tendermint's timeout_commit): consensus itself finishes
        # in a few gossip round trips, so without pacing block rate would be
        # network-bound instead of the configured block_time.
        self._gc_height(self.height)
        elapsed = self.sim.now - self._height_started_at
        self._await_height(
            block.height + 1, pacing=max(0.0, self.params.block_time - elapsed)
        )

    def _begin_height(self, height: int) -> None:
        if not self.running or height != self.height or self.step != "commit-wait":
            return
        self._height_started_at = self.sim.now
        self._start_round(0)
        # Replay any traffic that arrived while we lagged behind.
        for kind, payload, sender in self._future.pop(self.height, []):
            self._deliver(kind, payload, sender)
        for stale in [h for h in self._future if h <= self.height]:
            del self._future[stale]

    def _gc_height(self, height: int) -> None:
        for book in (self._prevotes, self._precommits):
            for key in [k for k in book if k[0] <= height]:
                del book[key]
        for key in [k for k in self._proposals if k[0] <= height]:
            block = self._proposals.pop(key)
            self._blocks.pop(block.cid, None)
            self._valid_rounds.pop(key, None)

    @property
    def equivocation_evidence(self) -> list:
        """Observed double-votes: (voter, first_cid, second_cid) tuples."""
        return list(self._equivocations)

    # ------------------------------------------------------------------
    # Introspection (stall diagnosis)
    # ------------------------------------------------------------------
    def debug_state(self) -> dict:
        """Round machinery + vote books at the working height (JSON-safe)."""

        def books(source: dict) -> dict:
            return {
                str(round_): {
                    voter: cid.hex()[:16] if cid is not None else None
                    for voter, cid in sorted(book.items())
                }
                for (height, round_), book in sorted(source.items())
                if height == self.height
            }

        state = super().debug_state()
        state.update({
            "height": self.height,
            "round": self.round,
            "step": self.step,
            "locked": (
                self.locked_cid.hex()[:16]
                if self.locked_cid is not None else None
            ),
            "locked_round": self.locked_round,
            "prevotes": books(self._prevotes),
            "precommits": books(self._precommits),
            "proposals": sorted(
                r for (h, r) in self._proposals if h == self.height
            ),
            "future_heights": sorted(self._future),
        })
        return state


_ABSENT = object()
