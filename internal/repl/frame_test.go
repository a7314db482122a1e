package repl

import (
	"bytes"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []request{
		{typ: frHello},
		{typ: frReset},
		{typ: frSeg, seq: 7, off: 1234, data: []byte("raw segment bytes")},
		{typ: frSeg, seq: 1, off: 0, data: nil},
		{typ: frSnap, seq: 42, data: []byte{0xBC, 0x01, 0x02}},
	}
	for _, c := range cases {
		enc := appendRequest(nil, &c)
		got, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got.typ != c.typ || got.seq != c.seq || got.off != c.off || !bytes.Equal(got.data, c.data) {
			t.Fatalf("round trip %+v -> %+v", c, got)
		}
	}

	for _, p := range []reply{
		{status: stOK, seg: 3, size: 99999},
		{status: stSealed},
		{status: stMiss, seg: 1, size: 16},
	} {
		got, err := decodeReply(appendReply(nil, p))
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Fatalf("round trip %+v -> %+v", p, got)
		}
	}
}

func TestFrameHostileInput(t *testing.T) {
	// None of these may panic; all must error.
	bad := [][]byte{
		nil,
		{},
		{frameVersion},
		{99, frHello},               // wrong version
		{frameVersion, 200},         // unknown type
		{frameVersion, frHello, 1},  // trailing bytes
		{frameVersion, frSeg},       // missing fields
		{frameVersion, frSeg, 0x80}, // truncated uvarint
		{frameVersion, frSeg, 0, 0}, // zero segment
		{frameVersion, frSnap, 0},   // zero sequence
		{frameVersion, frSnap},      // missing seq
	}
	for _, b := range bad {
		if _, err := decodeRequest(b); err == nil {
			t.Fatalf("decodeRequest(%v) accepted hostile input", b)
		}
	}
	for _, b := range [][]byte{nil, {}, {frameVersion}, {9, stOK, 1, 1}, {frameVersion, stOK, 0x80}, {frameVersion, stOK, 1, 1, 1}} {
		if _, err := decodeReply(b); err == nil {
			t.Fatalf("decodeReply(%v) accepted hostile input", b)
		}
	}
}

// FuzzReplFrame feeds arbitrary bytes to both replication frame decoders,
// which sit on a network-facing lane: neither may panic, and any frame that
// decodes must re-encode to a frame that decodes to an equal value (the
// bytes may differ: a uvarint need not arrive in its shortest form).
func FuzzReplFrame(f *testing.F) {
	for _, r := range []request{
		{typ: frHello},
		{typ: frReset},
		{typ: frSeg, seq: 7, off: 1234, data: []byte("raw segment bytes")},
		{typ: frSnap, seq: 42, data: []byte{0xBC, 0x01, 0x02}},
	} {
		f.Add(appendRequest(nil, &r))
	}
	f.Add(appendReply(nil, reply{status: stOK, seg: 3, size: 99999}))
	f.Add(appendReply(nil, reply{status: stSealed}))
	f.Add([]byte{frameVersion, frSeg, 0x80, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{frameVersion, stMiss, 0x80, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := decodeRequest(data); err == nil {
			again, err := decodeRequest(appendRequest(nil, r))
			if err != nil {
				t.Fatalf("request %+v re-encodes to an undecodable frame: %v", r, err)
			}
			if again.typ != r.typ || again.seq != r.seq || again.off != r.off || !bytes.Equal(again.data, r.data) {
				t.Fatalf("request round trip %+v -> %+v", r, again)
			}
		}
		if p, err := decodeReply(data); err == nil {
			again, err := decodeReply(appendReply(nil, p))
			if err != nil {
				t.Fatalf("reply %+v re-encodes to an undecodable frame: %v", p, err)
			}
			if again != p {
				t.Fatalf("reply round trip %+v -> %+v", p, again)
			}
		}
	})
}
