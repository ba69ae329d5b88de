// Command experiments runs the reproduction experiment suite (the E1–E18
// runners registered in internal/expt) and prints them as markdown tables.
//
//	experiments                 # run everything at full scale
//	experiments -run E3 -scale 0.1
//	experiments -out results/   # also write Figure 1 PNGs + CSVs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpx/internal/expt"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment ids (default: all)")
		scale   = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper scale)")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		trials  = flag.Int("trials", 0, "trials per data point (0 = default)")
		out     = flag.String("out", "", "directory for artifacts (PNGs, CSVs)")
	)
	flag.Parse()

	ids := expt.IDs()
	if *run != "" {
		ids = strings.Split(*run, ",")
	}
	cfg := expt.Config{Scale: *scale, Seed: *seed, Workers: *workers, Trials: *trials, OutDir: *out}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		res, err := expt.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(res)
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *out != "" {
			csvPath := filepath.Join(*out, strings.ToLower(res.ID)+".csv")
			if err := os.WriteFile(csvPath, []byte(res.Table.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				failed++
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
