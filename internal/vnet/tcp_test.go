package vnet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func tcpPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	a, err := NewTCPEndpoint("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPEndpoint("b", "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())
	a.SetHandler(echoHandler)
	b.SetHandler(echoHandler)
	return a, b
}

// TestTCPRefusedFramesCloseBeforeHandler: frames the reader does not
// accept — the retired single-shot 'Q' tag, and fixed-shape fields
// announcing more than their cap (the 32 MiB kind arrives as a 5-byte
// header; the server must not allocate it and wait) — close the connection
// with no reply, before the handler runs.
func TestTCPRefusedFramesCloseBeforeHandler(t *testing.T) {
	singleShot := []byte{'Q'}
	for _, chunk := range []string{"a", "k", "payload"} {
		singleShot = appendChunkString(singleShot, chunk)
	}
	hugeKind := appendChunkString([]byte{'q', 1}, "a")
	hugeKind = binary.AppendUvarint(hugeKind, 32<<20)

	for name, frame := range map[string][]byte{"single-shot Q": singleShot, "32 MiB kind": hugeKind} {
		t.Run(name, func(t *testing.T) {
			_, b := tcpPair(t)
			var called atomic.Bool
			b.SetHandler(func(SiteID, string, []byte) ([]byte, error) {
				called.Store(true)
				return nil, nil
			})
			conn, err := net.Dial("tcp", b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if reply, err := io.ReadAll(conn); err != nil || len(reply) > 0 {
				t.Fatalf("want the connection closed with no reply, got %q err %v", reply, err)
			}
			if called.Load() {
				t.Fatal("handler ran")
			}
		})
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, _ := tcpPair(t)
	got, err := a.Call(context.Background(), "b", "meet", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a/meet:payload" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPBothDirections(t *testing.T) {
	a, b := tcpPair(t)
	if _, err := a.Call(context.Background(), "b", "k", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(context.Background(), "a", "k", nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, _ := tcpPair(t)
	big := []byte(strings.Repeat("q", 1<<20))
	got, err := a.Call(context.Background(), "b", "bulk", big)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big)+len("a/bulk:") {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestTCPHandlerError(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(func(SiteID, string, []byte) ([]byte, error) {
		return nil, errors.New("service refused")
	})
	_, err := a.Call(context.Background(), "b", "k", nil)
	if err == nil || !strings.Contains(err.Error(), "service refused") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPNoHandler(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(nil)
	_, err := a.Call(context.Background(), "b", "k", nil)
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := tcpPair(t)
	_, err := a.Call(context.Background(), "nowhere", "k", nil)
	if !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPDeadPeer(t *testing.T) {
	a, b := tcpPair(t)
	addr := b.Addr()
	b.Close()
	a.AddPeer("b", addr)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, "b", "k", nil); err == nil {
		t.Fatal("call to closed peer succeeded")
	}
}

func TestTCPClosedCallerFails(t *testing.T) {
	a, _ := tcpPair(t)
	a.Close()
	if _, err := a.Call(context.Background(), "b", "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPConcurrent(t *testing.T) {
	a, _ := tcpPair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := a.Call(context.Background(), "b", "k", []byte("x"))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
