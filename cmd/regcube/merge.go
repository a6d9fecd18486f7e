package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/persist"
)

// runMerge implements `regcube merge`: flatten per-node checkpoint files
// into one checkpoint. The inputs must have been cut at the same stream
// position — same open unit and closed-unit count, which a router-driven
// cluster guarantees at its barriers — over the same schema; anything
// else — inputs that share a cell, the same file twice among them — is
// refused rather than merged wrong. Each node's WAL watermark counts its
// own log, so the merged file carries none. Inputs of any version write
// the version 5 document.
//
//	regcube merge -o merged.ckpt node0.ckpt node1.ckpt node2.ckpt node3.ckpt
func runMerge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	outPath := fs.String("o", "", "output checkpoint path (default stdout)")
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: regcube merge [-o merged.ckpt] node0.ckpt node1.ckpt ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		return fmt.Errorf("no checkpoint files")
	}
	readers := make([]io.Reader, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		readers[i] = f
	}
	cp, err := cluster.MergeCheckpoints(readers)
	if err != nil {
		return err
	}
	if *outPath == "" {
		return persist.WriteCheckpoint(out, cp)
	}
	if _, err := persist.ReplaceFile(*outPath, func(w io.Writer) error { return persist.WriteCheckpoint(w, cp) }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# merged %d checkpoints at unit %d (%d cells) into %s\n",
		len(paths), cp.Unit, len(cp.Cells), *outPath)
	return nil
}
