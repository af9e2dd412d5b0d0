package relnet

import (
	"reflect"
	"testing"
)

func deliverInto(out *[]string) func(string) {
	return func(s string) { *out = append(*out, s) }
}

func TestOutboxPushAckWindow(t *testing.T) {
	var o Outbox[string]
	for i, p := range []string{"a", "b", "c"} {
		f := o.Push(10, p)
		if f.Seq != uint64(i) {
			t.Fatalf("push %d assigned seq %d", i, f.Seq)
		}
	}
	if o.Len() != 3 {
		t.Fatalf("backlog %d, want 3", o.Len())
	}
	// Cumulative ack below 2 pops a and b.
	progress, stale := o.Ack(0, 2)
	if !progress || stale {
		t.Fatalf("ack(0,2): progress=%v stale=%v", progress, stale)
	}
	oldest, ok := o.Oldest()
	if !ok || oldest.Seq != 2 || oldest.Payload != "c" {
		t.Fatalf("oldest after ack: %+v ok=%v", oldest, ok)
	}
	// Same ack again: no progress, not stale.
	progress, stale = o.Ack(0, 2)
	if progress || stale {
		t.Fatalf("repeat ack(0,2): progress=%v stale=%v", progress, stale)
	}
	// Wrong-generation ack is stale and pops nothing.
	progress, stale = o.Ack(7, 99)
	if progress || !stale {
		t.Fatalf("ack(7,99): progress=%v stale=%v", progress, stale)
	}
	if o.Len() != 1 {
		t.Fatalf("stale ack changed backlog: %d", o.Len())
	}
}

// TestOutboxReopenRenumbers pins the daemon's restart path: the pending
// backlog survives a reopen and is renumbered from sequence 0 under the
// new incarnation, so the receiver's fresh sequence space resequences it.
func TestOutboxReopenRenumbers(t *testing.T) {
	var o Outbox[string]
	o.Push(1, "a")
	o.Push(1, "b")
	o.Push(1, "c")
	if _, stale := o.Ack(0, 1); stale {
		t.Fatal("ack on live gen reported stale")
	}
	o.Reopen(42)
	if o.Gen() != 42 {
		t.Fatalf("gen %d, want 42", o.Gen())
	}
	var seqs []uint64
	var payloads []string
	for _, f := range o.Pending() {
		seqs = append(seqs, f.Seq)
		payloads = append(payloads, f.Payload)
	}
	if !reflect.DeepEqual(seqs, []uint64{0, 1}) || !reflect.DeepEqual(payloads, []string{"b", "c"}) {
		t.Fatalf("renumbered backlog: seqs=%v payloads=%v", seqs, payloads)
	}
	// New pushes continue after the renumbered backlog.
	if f := o.Push(1, "d"); f.Seq != 2 {
		t.Fatalf("post-reopen push got seq %d, want 2", f.Seq)
	}
}

func TestInboxInOrderDelivery(t *testing.T) {
	var in Inbox[string]
	var got []string
	for i, p := range []string{"a", "b", "c"} {
		if v := in.Accept(0, uint64(i), p, deliverInto(&got)); v != VerdictDelivered {
			t.Fatalf("frame %d verdict %v", i, v)
		}
	}
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("delivered %v", got)
	}
	if in.Cum() != 3 {
		t.Fatalf("cum %d, want 3", in.Cum())
	}
}

func TestInboxResequencingAndDuplicates(t *testing.T) {
	var in Inbox[string]
	var got []string
	d := deliverInto(&got)
	if v := in.Accept(0, 2, "c", d); v != VerdictBuffered {
		t.Fatalf("gap frame verdict %v", v)
	}
	if v := in.Accept(0, 2, "c", d); v != VerdictDuplicate {
		t.Fatalf("parked duplicate verdict %v", v)
	}
	if v := in.Accept(0, 0, "a", d); v != VerdictDelivered {
		t.Fatal("in-sequence frame not delivered")
	}
	if !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("premature drain: %v", got)
	}
	// Filling the gap releases the parked frame in order.
	if v := in.Accept(0, 1, "b", d); v != VerdictDelivered {
		t.Fatal("gap fill not delivered")
	}
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("drain order: %v", got)
	}
	if in.Buffered() != 0 {
		t.Fatalf("%d frames still parked", in.Buffered())
	}
	if v := in.Accept(0, 1, "b", d); v != VerdictDuplicate {
		t.Fatal("delivered frame re-accepted")
	}
}

// TestInboxGenerationAdoption: a higher generation supersedes the current
// one (parked frames are discarded, sequence space restarts), and frames
// from any lower generation are stale and never delivered.
func TestInboxGenerationAdoption(t *testing.T) {
	var in Inbox[string]
	var got []string
	d := deliverInto(&got)
	in.Accept(3, 0, "old0", d)
	in.Accept(3, 2, "old2", d) // parked
	if in.Buffered() != 1 {
		t.Fatalf("parked %d, want 1", in.Buffered())
	}
	if v := in.Accept(7, 0, "new0", d); v != VerdictDelivered {
		t.Fatalf("adoption verdict %v", v)
	}
	if in.Gen() != 7 || in.Cum() != 1 || in.Buffered() != 0 {
		t.Fatalf("post-adoption state gen=%d cum=%d parked=%d", in.Gen(), in.Cum(), in.Buffered())
	}
	if v := in.Accept(3, 1, "old1", d); v != VerdictStale {
		t.Fatalf("stale frame verdict %v", v)
	}
	if !reflect.DeepEqual(got, []string{"old0", "new0"}) {
		t.Fatalf("delivered %v", got)
	}
}

// TestChannelBacklogSurvivesRestart exercises the two halves together through the
// daemon's peer-restart sequence: unacked frames survive the sender-side
// Reopen and arrive exactly once, in order, under the new incarnation.
func TestChannelBacklogSurvivesRestart(t *testing.T) {
	var o Outbox[string]
	var in Inbox[string]
	var got []string
	d := deliverInto(&got)

	relay := func(f OutFrame[string]) Verdict { return in.Accept(o.Gen(), f.Seq, f.Payload, d) }

	// Two frames reach the peer but only the first's ack makes it back
	// before the peer restarts; its fresh inbox follows a newer
	// incarnation. "b" is replayed — the restart wiped whatever the peer
	// did with it, so the duplicate is the correct outcome here.
	relay(o.Push(1, "a"))
	relay(o.Push(1, "b"))
	o.Ack(o.Gen(), 1)
	o.Push(1, "c") // never transmitted before the restart
	in = Inbox[string]{}
	in.Reset(100)

	// Handshake detects the restart; the sender reopens under the agreed
	// (higher) incarnation and replays its pending backlog.
	o.Reopen(100)
	for _, f := range o.Pending() {
		if v := relay(f); v != VerdictDelivered {
			t.Fatalf("replayed frame %d verdict %v", f.Seq, v)
		}
	}
	// A retransmit race after the replay is suppressed as a duplicate.
	if f, ok := o.Oldest(); !ok || relay(f) != VerdictDuplicate {
		t.Fatal("post-replay retransmit not suppressed")
	}
	o.Ack(100, in.Cum())
	if o.Len() != 0 {
		t.Fatalf("backlog %d after full ack", o.Len())
	}
	if !reflect.DeepEqual(got, []string{"a", "b", "b", "c"}) {
		t.Fatalf("delivery sequence %v", got)
	}
}
