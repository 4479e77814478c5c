// Command awtrace is the NVBit stand-in's workbench: it traces a kernel
// (functional SIMT execution), writes/reads the binary trace format, and
// prints the summary statistics timing models consume — instruction counts
// per unit, average active lanes, coalescing behaviour.
//
//	go run ./cmd/awtrace -example            # trace the demo kernel
//	go run ./cmd/awtrace -f k.asm -o k.trc   # save a trace file
//	go run ./cmd/awtrace -i k.trc            # inspect a saved trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"accelwattch"
	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

const exampleKernel = `.kernel trace_demo
.grid 4
.block 64

    S2R R1, gtid
    SHL R2, R1, 2
    IADD R3, R2, 4194304
    MOVI R4, 6
loop:
    LDG R5, [R3]
    IMAD R6, R5, R5, R6
    ADD.S64 R3, R3, 4096
    IADD R4, R4, -1
    ISETP.gt P0, R4, 0
@P0 BRA loop
    STG [R2], R6
    EXIT
`

func main() {
	log.SetFlags(0)
	log.SetPrefix("awtrace: ")
	var (
		file    = flag.String("f", "", "kernel assembly file to trace")
		example = flag.Bool("example", false, "trace the built-in example kernel")
		inPath  = flag.String("i", "", "inspect a saved trace file instead of tracing")
		outPath = flag.String("o", "", "write the trace to this file")
		level   = flag.String("level", "sass", "ISA level to trace: sass or ptx")
		dump    = flag.Int("dump", 0, "print the first N records of warp 0")
	)
	flag.Parse()

	var kt *trace.KernelTrace
	switch {
	case *inPath != "":
		var err error
		if kt, err = trace.ReadFile(*inPath); err != nil {
			log.Fatal(err)
		}
	default:
		src := exampleKernel
		if *file != "" {
			data, err := os.ReadFile(*file)
			if err != nil {
				log.Fatal(err)
			}
			src = string(data)
		} else if !*example {
			log.Fatal("provide -f kernel.asm, -example, or -i trace file")
		}
		k, err := accelwattch.Assemble(src)
		if err != nil {
			log.Fatal(err)
		}
		if *level == "sass" {
			if k, err = isa.ForLevel(k, isa.SASS); err != nil {
				log.Fatal(err)
			}
		}
		kt, err = emu.Run(k, emu.NewMemory())
		if err != nil {
			log.Fatal(err)
		}
	}

	s := trace.Summarize(kt)
	fmt.Printf("kernel %s (%v): %d warps, %d warp-instructions, %d thread-instructions\n",
		kt.Kernel.Name, kt.Kernel.Level, s.WarpCount, s.DynInstrs, s.ThreadInstrs)
	fmt.Printf("average active lanes: %.2f; memory accesses: %d; global 128B lines: %d\n",
		s.AvgLanes, s.MemAccesses, s.GlobalLines)

	// Per-opcode census, descending; ties in opcode order, so the output
	// does not depend on map iteration.
	type row struct {
		op isa.Op
		n  int64
	}
	var rows []row
	for op, n := range s.OpCounts {
		rows = append(rows, row{op, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].op < rows[j].op
	})
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "opcode\tcount\tunit")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%d\t%v\n", r.op, r.n, r.op.Info().Unit)
	}
	w.Flush()

	if *dump > 0 && len(kt.Warps) > 0 {
		wt := &kt.Warps[0]
		fmt.Printf("\nfirst %d records of warp (CTA %d, warp %d):\n", *dump, wt.CTA, wt.Warp)
		mi := 0
		for i, r := range wt.Recs {
			if i >= *dump {
				break
			}
			in := kt.Instr(r)
			fmt.Printf("  pc=%-3d %-10v mask=%08x", r.PC, in.Op, r.Mask)
			if in.Op.Info().IsMem {
				if acc := kt.Access(wt.Mem[mi], r.Mask); acc.Len() > 0 {
					fmt.Printf(" addr[0]=%#x x%d", acc.Lane(0), acc.Len())
				}
				mi++
			}
			fmt.Println()
		}
	}

	if *outPath != "" {
		data, err := trace.Encode(kt)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d bytes to %s\n", len(data), *outPath)
	}
}
