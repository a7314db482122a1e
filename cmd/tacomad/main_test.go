package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestPeerListSet(t *testing.T) {
	var p peerList
	if err := p.Set("site-1=127.0.0.1:7101"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("site-2=10.0.0.2:7102"); err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("peers = %v", p)
	}
	if p.String() != "site-1=127.0.0.1:7101,site-2=10.0.0.2:7102" {
		t.Fatalf("String = %q", p.String())
	}
	if err := p.Set("missing-equals"); err == nil {
		t.Fatal("malformed peer accepted")
	}
}

// TestCabinetFlagRejected: snapshot-file persistence is gone, so -cabinet
// is unknown to the flag package rather than silently accepted.
func TestCabinetFlagRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(),
		"TACOMAD_CHILD=1",
		"TACOMAD_ARGS="+strings.Join([]string{"-listen", "127.0.0.1:0", "-cabinet", "x"}, "\x1f"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() <= 0 || !strings.Contains(string(out), "flag provided but not defined") {
		t.Fatalf("tacomad -cabinet x: err=%v output=%q, want a non-zero exit on an undefined flag", err, out)
	}
}
