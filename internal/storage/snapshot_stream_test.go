package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/wire"
)

// sealedStore returns a pinned view of a store holding n keys, written in
// several sealed generations so the view's chunks mix shared and cloned
// copy-on-write nodes and the index has split many times.
func sealedStore(n int) *chain.Reader {
	s := chain.NewStore()
	var ws chain.WriteSet
	for i := 0; i < n; i++ {
		ws = append(ws, chain.Write{Key: fmt.Sprintf("c_acct%06d", (i*7919)%n), Value: []byte(fmt.Sprint(1000000 + i))})
		if len(ws) == 256 {
			s.Apply(ws)
			s.Seal()
			ws = nil
		}
	}
	s.Apply(ws)
	s.Seal()
	return s.Head()
}

// streamCases are the stores whose streamed encoding must match the
// map-based one byte for byte.
func streamCases() map[string]*chain.Reader {
	cases := map[string]*chain.Reader{
		"empty": chain.NewStore().Head(),
		"split": sealedStore(1000),
	}

	one := chain.NewStore()
	one.Apply(chain.WriteSet{{Key: "c_alice", Value: []byte("100")}})
	cases["one key"] = one.Head()

	// Deletes: every third key, then a run long enough to empty whole
	// chunks, with seals in between so deletes hit shared chunks too.
	del := chain.NewStore()
	var ws chain.WriteSet
	for i := 0; i < 900; i++ {
		ws = append(ws, chain.Write{Key: fmt.Sprintf("k%04d", i), Value: []byte{byte(i), byte(i >> 8)}})
	}
	del.Apply(ws)
	del.Seal()
	ws = nil
	for i := 0; i < 900; i += 3 {
		ws = append(ws, chain.Write{Key: fmt.Sprintf("k%04d", i)})
	}
	del.Apply(ws)
	del.Seal()
	ws = nil
	for i := 200; i < 600; i++ {
		ws = append(ws, chain.Write{Key: fmt.Sprintf("k%04d", i)})
	}
	del.Apply(ws)
	cases["after deletes"] = del.Head()

	// Byte-order edge cases: the empty key, NUL and 0xff bytes, non-UTF-8
	// and multi-byte UTF-8 keys, an empty value.
	bin := chain.NewStore()
	bin.Apply(chain.WriteSet{
		{Key: "", Value: []byte("empty key")},
		{Key: "\x00", Value: []byte{0}},
		{Key: "\x00\x01", Value: []byte{0xff, 0}},
		{Key: "a\xffb", Value: []byte("x")},
		{Key: "a\x80", Value: []byte{}},
		{Key: "é", Value: []byte("utf8")},
		{Key: "\xff", Value: []byte{1, 2, 3}},
		{Key: "\xff\xff", Value: []byte("last")},
	})
	cases["binary keys"] = bin.Head()

	// A restored store is re-chunked from a map (half-full chunks).
	rest := chain.NewStore()
	rest.Restore(sealedStore(700).Snapshot())
	cases["restored"] = rest.Head()
	return cases
}

func TestSnapshotViewEncodingMatchesPutSnapshot(t *testing.T) {
	for name, r := range streamCases() {
		t.Run(name, func(t *testing.T) {
			var streamed, mapped wire.Encoder
			wire.PutSnapshotView(&streamed, r)
			wire.PutSnapshot(&mapped, r.Snapshot())
			if !bytes.Equal(streamed.Bytes(), mapped.Bytes()) {
				t.Fatalf("streamed state encoding (%d bytes) differs from PutSnapshot (%d bytes)",
					streamed.Len(), mapped.Len())
			}
		})
	}
}

func TestStreamedSnapshotRecovers(t *testing.T) {
	for name, r := range streamCases() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			saved := testSnapshot(9)
			saved.StateView = r
			if err := d.SaveSnapshot(saved); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d, err = OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			got, _, err := d.Recover()
			if err != nil {
				t.Fatal(err)
			}
			saved.State = r.Snapshot()
			wantSnapshot(t, got, saved)

			restored := chain.NewStore()
			restored.Restore(got.State)
			if restored.Version() != r.Version() || restored.Digest() != r.Digest() {
				t.Fatalf("restored version %d digest %x, want %d %x",
					restored.Version(), restored.Digest(), r.Version(), r.Digest())
			}
			if !reflect.DeepEqual(restored.Head().Keys("", ""), r.Keys("", "")) {
				t.Fatal("restored store holds different keys")
			}
		})
	}
}

// saveAllocs measures allocations per SaveSnapshot of an n-key view on
// the Memory backend (no fsync in the measurement).
func saveAllocs(n int) float64 {
	m := NewMemory()
	snap := Snapshot{Seq: 1, StateView: sealedStore(n)}
	return testing.AllocsPerRun(10, func() {
		if err := m.SaveSnapshot(snap); err != nil {
			panic(err)
		}
	})
}

// TestSaveSnapshotAllocsIndependentOfKeys guards the streaming capture:
// a per-key copy, map or sort would make allocations grow with the state.
func TestSaveSnapshotAllocsIndependentOfKeys(t *testing.T) {
	small, large := saveAllocs(1<<10), saveAllocs(1<<14)
	if small != large {
		t.Fatalf("SaveSnapshot allocates %.0f times at 1k keys and %.0f at 16k keys; want the same", small, large)
	}
}

func BenchmarkSaveSnapshot(b *testing.B) {
	m := NewMemory()
	snap := Snapshot{Seq: 1, StateView: sealedStore(8192)}
	b.ReportAllocs()
	for b.Loop() {
		if err := m.SaveSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSaveSnapshotRequiresStateView(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for name, b := range map[string]Backend{"memory": NewMemory(), "disk": d} {
		snap := testSnapshot(3)
		snap.StateView = nil
		if err := b.SaveSnapshot(snap); err == nil {
			t.Errorf("%s: SaveSnapshot without a state view succeeded", name)
		}
	}
}
