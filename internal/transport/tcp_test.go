package transport_test

import (
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/consensus/pbft"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/txn"
)

// samples returns wire-registered messages readdressed from → to.
func samples(from, to simnet.NodeID) []simnet.Message {
	var out []simnet.Message
	for _, m := range append(pbft.WireSamples(), txn.WireSamples()...) {
		m.From, m.To = from, to
		out = append(out, m)
	}
	return out
}

func newPair(t *testing.T) (*transport.TCP, *transport.TCP) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := transport.NewTCP(transport.TCPConfig{
		Listener: lnA,
		Peers:    map[simnet.NodeID]string{2: lnB.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := transport.NewTCP(transport.TCPConfig{
		Listener: lnB,
		Peers:    map[simnet.NodeID]string{1: lnA.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPRoundTripEveryType(t *testing.T) {
	a, b := newPair(t)
	got := make(chan simnet.Message, 64)
	b.RegisterHandler(2, func(m simnet.Message) { got <- m })

	for _, m := range samples(1, 2) {
		if err := a.Send(m); err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		select {
		case rx := <-got:
			if rx.Type != m.Type || rx.From != 1 || rx.To != 2 {
				t.Fatalf("envelope mismatch: %+v", rx)
			}
			if !reflect.DeepEqual(rx.Payload, m.Payload) {
				t.Fatalf("%s: payload mismatch over TCP", m.Type)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: timed out", m.Type)
		}
	}
	if s := a.Stats(); s.SentFrames == 0 {
		t.Fatal("sender stats not counting")
	}
	if s := b.Stats(); s.RecvFrames == 0 {
		t.Fatal("receiver stats not counting")
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := newPair(t)
	gotA := make(chan simnet.Message, 8)
	gotB := make(chan simnet.Message, 8)
	a.RegisterHandler(1, func(m simnet.Message) { gotA <- m })
	b.RegisterHandler(2, func(m simnet.Message) { gotB <- m })

	msg := samples(1, 2)[0]
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	back := samples(2, 1)[0]
	if err := b.Send(back); err != nil {
		t.Fatal(err)
	}
	for i, ch := range []chan simnet.Message{gotB, gotA} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("direction %d timed out", i)
		}
	}
}

// TestTCPReconnect kills the receiving transport and restarts it on the
// same address: the sender's per-peer writer must redial with backoff and
// deliver again without any new Transport being constructed.
func TestTCPReconnect(t *testing.T) {
	lnA, _ := net.Listen("tcp", "127.0.0.1:0")
	lnB, _ := net.Listen("tcp", "127.0.0.1:0")
	addrB := lnB.Addr().String()
	a, err := transport.NewTCP(transport.TCPConfig{
		Listener:    lnA,
		Peers:       map[simnet.NodeID]string{2: addrB},
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	b1, err := transport.NewTCP(transport.TCPConfig{Listener: lnB})
	if err != nil {
		t.Fatal(err)
	}
	got1 := make(chan simnet.Message, 1)
	b1.RegisterHandler(2, func(m simnet.Message) { got1 <- m })
	msg := samples(1, 2)[0]
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got1:
	case <-time.After(10 * time.Second):
		t.Fatal("first delivery timed out")
	}
	b1.Close()

	// Restart on the same port; keep sending until the redialed
	// connection delivers (frames sent into the outage are dropped by
	// design — the protocols retransmit, and so does this loop).
	var b2 *transport.TCP
	for i := 0; i < 50; i++ {
		b2, err = transport.NewTCP(transport.TCPConfig{Listen: addrB})
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addrB, err)
	}
	defer b2.Close()
	got2 := make(chan simnet.Message, 1)
	b2.RegisterHandler(2, func(m simnet.Message) { got2 <- m })

	deadline := time.After(15 * time.Second)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-got2:
			return
		case <-tick.C:
			a.Send(msg)
		case <-deadline:
			t.Fatalf("no delivery after restart (stats %+v)", a.Stats())
		}
	}
}

func TestTCPLocalShortCircuit(t *testing.T) {
	a, err := transport.NewTCP(transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	got := make(chan simnet.Message, 1)
	a.RegisterHandler(7, func(m simnet.Message) { got <- m })
	m := samples(7, 7)[0]
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	select {
	case rx := <-got:
		if !reflect.DeepEqual(rx.Payload, m.Payload) {
			t.Fatal("local delivery altered payload")
		}
	default:
		t.Fatal("local delivery should be synchronous")
	}
	if err := a.Send(simnet.Message{To: 99, Type: pbft.MsgRequest}); err == nil {
		t.Fatal("unroutable destination should error")
	}
}
