package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/conform"
)

// conformCmd runs the grammar-driven conformance suite: generated
// kernels (plus ill-formed mutants) are pushed through the verifier
// and every execution backend against the scalar reference oracle.
// Exit is non-zero iff any case missed, misclassified, diverged or was
// unsoundly accepted.
func conformCmd(argv []string, globalJSON bool) error {
	fs := flag.NewFlagSet("conform", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "generator seed (same seed, same cases)")
	count := fs.Int("count", 200, "number of generated cases")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	nativeEvery := fs.Int("native-every", 0,
		"run the native backend on every k-th executed case (0 = default, negative = never)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	rep, err := conform.Run(conform.Options{
		Seed:        *seed,
		Count:       *count,
		NativeEvery: *nativeEvery,
		Log:         os.Stderr,
	})
	if err != nil {
		return err
	}
	if globalJSON || *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		rep.Render(os.Stdout)
	}
	if n := rep.Bad(); n > 0 {
		return fmt.Errorf("conform: %d failure(s)", n)
	}
	return nil
}
