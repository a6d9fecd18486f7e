// Package examples_test keeps the worked scenarios runnable: they are the
// facade's only in-repo callers, and nothing else compiles or runs them.
package examples_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// Every example builds with the local toolchain and, run under a timeout,
// exits 0 having printed something.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs seven binaries")
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	ran := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		ran++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command("go", "build", "-o", exe, "./"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, exe)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("run: %v (context: %v)\nstderr:\n%s", err, ctx.Err(), stderr.Bytes())
			}
			if stdout.Len() == 0 {
				t.Fatal("exited 0 without printing anything")
			}
		})
	}
	if ran == 0 {
		t.Fatal("found no example directories")
	}
}
