"""The send/receive window pair as a state machine (Hypothesis).

One ``SendWindow`` feeds one ``ReceiveWindow`` through a channel that,
until the machine's ``stop_faults`` rule fires, may drop, duplicate and
reorder data frames.  Nothing flows back: the link protocol has no ACK
and no NACK.
The receiver's aligner is a FIFO of arrived waves that ``release`` empties
at its own pace, so a wave can sit arrived-but-not-aggregated for many
steps — the state a watermark that advanced on arrival mishandled (a
repaired SUM then lost the parked contribution).  ``adopt`` is repair: the
receiver dies with whatever it held, an adopter seeded with its watermark
(what a checkpoint carries) takes over, and the sender replays its
history.

Invariants, after every step:

* no wave is released twice, across the receiver and every adopter;
* a released wave is the wave that was sent (its fragments were not
  mixed with another wave's);
* the watermark never decreases, and it advances on release, not on
  arrival: it always equals the highest wave released (or seeded) at
  the current receiver.

When the run ends the faults stop, the machine repairs once and lets
the channel drain in order.  Then every wave still in the sender's
history that the dead receiver had not aggregated — above its
watermark, or arrived but still parked — has been released exactly
once.  The rest of the history is waves it aggregated, or waves given
up for good during the faults: ``ReceiveWindow.admit`` refuses any
fragment at or below the last one it admitted, so a wave overtaken by
a later one is aborted, never replayed.  A real link never loses or
reorders a frame; only these injected faults overtake a wave.

No sleeps and no threads.  A failing run prints its steps and a
``@reproduce_failure`` blob that replays it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.chunking import ReceiveWindow, SendWindow, chunk_meta, wrap_chunk
from repro.core.packet import Packet

KEY = "child"
CHUNK = 64  # bytes: 8 doubles per fragment


def wave_packet(wave_id: int, n_chunks: int) -> Packet:
    """A packet whose every element names its wave (split: ``n_chunks``)."""
    return Packet(5, 105, "%alf", ((float(wave_id),) * (8 * n_chunks),), origin_rank=0)


class WindowPair(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tx = SendWindow()
        self.rx = ReceiveWindow()
        self.wire = []  # data frames, sender -> receiver
        self.parked = []  # (wave id, whole packet) arrived, not yet released
        self.released = set()  # wave ids released, at every receiver
        self.released_here = []  # released at the current receiver
        self.seeded = -1  # the current receiver's seeded watermark
        self.last_mark = -1
        self.faults = True

    # -- sender --------------------------------------------------------------

    @rule(n_chunks=st.integers(1, 3))
    def send(self, n_chunks):
        packet = wave_packet(self.tx.wave, n_chunks)
        if n_chunks == 1:
            # A one-fragment wave, as the incremental reduce path frames it.
            frags = [wrap_chunk(packet, self.tx.wave, 0, 1)]
            self.tx.wave += 1
        else:
            frags = self.tx.split(packet, CHUNK)
            assert len(frags) == n_chunks
        for frag in frags:
            self.tx.record(frag)
        self.wire.extend(frags)

    @rule()
    def abort(self):
        """A wave aborted before it emitted anything consumes its id."""
        self.tx.wave += 1

    # -- the channel ---------------------------------------------------------

    def _pick(self, data, items, label):
        if not self.faults:
            return 0
        return data.draw(st.integers(0, len(items) - 1), label=label)

    @precondition(lambda self: self.wire)
    @rule(data=st.data())
    def deliver(self, data):
        frag = self.wire.pop(self._pick(data, self.wire, "deliver"))
        if self.rx.admit(KEY, frag):
            whole = self.rx.add(KEY, frag)
            if whole is not None:
                self.parked.append((chunk_meta(frag)[0], whole))

    @precondition(lambda self: self.faults and self.wire)
    @rule(data=st.data())
    def duplicate(self, data):
        frag = self.wire[self._pick(data, self.wire, "duplicate")]
        self.wire.insert(data.draw(st.integers(0, len(self.wire)), label="at"), frag)

    @precondition(lambda self: self.faults and self.wire)
    @rule(data=st.data())
    def drop(self, data):
        del self.wire[self._pick(data, self.wire, "drop")]

    # -- receiver ------------------------------------------------------------

    @precondition(lambda self: self.parked)
    @rule()
    def release(self):
        """The aligner hands the oldest arrived wave to the filter."""
        wave, whole = self.parked.pop(0)
        assert wave not in self.released, f"wave {wave} released twice"
        assert set(whole.values[0]) == {float(wave)}, f"wave {wave} mixed fragments"
        self.released.add(wave)
        self.released_here.append(wave)
        self.rx.release(KEY, wave)

    @rule()
    def adopt(self):
        """Repair: the receiver dies with all it held; an adopter seeded
        with its watermark takes the link; the sender replays history."""
        mark = self.rx.watermarks.get(KEY, -1)
        self.wire.clear()
        self.parked.clear()
        self.rx = ReceiveWindow()
        if mark >= 0:
            self.rx.seed_watermark(KEY, mark)
        self.seeded = mark
        self.released_here = []
        self.wire.extend(self.tx.resend_since(-1))

    @precondition(lambda self: self.faults)
    @rule()
    def stop_faults(self):
        self.faults = False

    # -- invariants ----------------------------------------------------------

    @invariant()
    def watermark_is_the_highest_release(self):
        mark = self.rx.watermarks.get(KEY, -1)
        assert mark >= self.last_mark, f"watermark went back {self.last_mark} -> {mark}"
        self.last_mark = mark
        assert mark == max(self.released_here, default=self.seeded), (
            f"watermark {mark} but released {self.released_here} over seed {self.seeded}"
        )

    def teardown(self):
        self.faults = False
        parked = {wave for wave, _whole in self.parked}
        self.adopt()
        owed = {
            seq for seq, _frags in self.tx._history
            if seq > self.seeded or seq in parked
        }
        while self.wire or self.parked:
            if self.parked:
                self.release()
            else:
                self.deliver(None)
            self.watermark_is_the_highest_release()
        missing = sorted(owed - self.released)
        assert not missing, f"waves {missing} were owed to the adopter, never released"


TestWindowPair = WindowPair.TestCase
TestWindowPair.settings = settings(
    max_examples=150,
    stateful_step_count=60,
    deadline=None,
    print_blob=True,
)
