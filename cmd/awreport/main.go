// Command awreport renders power-attribution reports: per-kernel tables of
// which model components consumed the estimated watts, per variant. It
// feeds on either a ledger artifact written by another command
// (awtune/awvalidate/awexport -ledger-out) or a live run of the pipeline,
// whose own ledger it folds the same way:
//
//	awvalidate -ledger-out ledger.jsonl && awreport -ledger ledger.jsonl
//	awreport                # tune + validate a live Volta session
//
// A ledger gets one table per variant and model: the events of a case
// study's retargeted model or the GPUWattch baseline carry the model in
// their detail, and awserve's carry the serving model's name, so their
// rows never mix with the session's own.
//
// Columns default to the coarse Figure 8/9 groups of the paper;
// -components switches to all 25 raw model components. Every row's
// components sum bit-identically to its estimated total — the attribution
// invariant the eval tests enforce — and awreport re-checks it on the way
// in, so a corrupted ledger is reported rather than rendered.
//
// -energy switches to the chargeback report: the per-tenant joules ledger
// accumulated by awmeterd's attribution windows and awserve's per-request
// energy charges, split by idle/active power domain with each tenant's
// share of the fleet total:
//
//	awmeterd -once -ticks 500 -ledger-out ledger.jsonl >/dev/null
//	awreport -energy -ledger ledger.jsonl
//
// The same corruption stance applies: every ingested event's joules_total
// must equal joules_active+joules_idle bit-for-bit (the encoding
// round-trips floats exactly), or the ledger is rejected.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"

	"accelwattch"
	"accelwattch/internal/attr"
	"accelwattch/internal/cli"
	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/eval"
	"accelwattch/internal/obs"
	"accelwattch/internal/workloads"
)

// table identifies one attribution table: a variant and the model whose
// estimates it holds. model is the breakdown event's detail: empty for the
// session's own tuned model.
type table struct{ variant, model string }

func (t table) String() string {
	if t.model == "" {
		return t.variant
	}
	return t.variant + " (" + t.model + ")"
}

// row is one kernel's attribution line in a table. Category is set only
// for inference-pack rows (ledger events and by-category live runs carry
// the tag; classic Table 4 rows leave it empty).
type row struct {
	Kernel    string
	Category  string
	MeasuredW float64
	TotalW    float64
	Breakdown core.Breakdown
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("awreport: ")
	var (
		ledgerPath = flag.String("ledger", "", "read breakdowns from this JSONL ledger instead of running the pipeline")
		components = flag.Bool("components", false, "print all 25 raw components instead of the Figure 8/9 groups")
		energy     = flag.Bool("energy", false, "render the per-tenant energy chargeback table from the ledger's attribution events")
		variant    = flag.String("variant", "", "only report this variant (SASS_SIM, PTX_SIM, HW, HYBRID)")
		byCategory = flag.Bool("by-category", false, "fold attribution rows by inference-pack category instead of per kernel (live runs validate the inference pack)")
		archName   = flag.String("arch", "volta", "architecture for live runs (volta, pascal, turing, or a full or chip name such as titanx)")
		full       = flag.Bool("full", false, "use the full-fidelity workload scale for live runs")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "execution-engine worker count for live runs")
	)
	traceOut, ledgerOut := cli.Artifacts()
	flag.Parse()

	if *energy {
		if *ledgerPath == "" {
			log.Fatal("-energy needs -ledger (attribution events come from awmeterd or awserve, not live runs)")
		}
		rows, err := energyFromLedger(*ledgerPath)
		if err != nil {
			log.Fatal(err)
		}
		printChargeback(os.Stdout, rows)
		return
	}

	var byTable map[table][]row
	var err error
	if *ledgerPath != "" {
		byTable, err = fromLedger(*ledgerPath)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		byTable, err = fromLiveRun(*archName, *full, *workers, *byCategory, *traceOut, *ledgerOut)
		if err != nil {
			log.Fatal(err)
		}
	}

	tables := make([]table, 0, len(byTable))
	for t := range byTable {
		if *variant != "" && t.variant != *variant {
			continue
		}
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		log.Fatalf("no breakdown records%s", matchHint(*variant))
	}
	sort.Slice(tables, func(i, j int) bool {
		if tables[i].variant != tables[j].variant {
			return tables[i].variant < tables[j].variant
		}
		return tables[i].model < tables[j].model
	})
	printed := 0
	for _, t := range tables {
		if *byCategory {
			if printCategoryTable(t.String(), byTable[t]) {
				printed++
			}
			continue
		}
		printTable(t.String(), byTable[t], *components)
	}
	if *byCategory && printed == 0 {
		log.Fatal("no category-tagged rows (ledger written before the inference pack, or a Table 4 run?)")
	}
}

func matchHint(variant string) string {
	if variant == "" {
		return " in the ledger (was it written by a validation run?)"
	}
	return fmt.Sprintf(" for variant %q", variant)
}

// fromLedger reconstructs attribution rows from a ledger artifact's
// KindBreakdown events (see fromEvents).
func fromLedger(path string) (map[table][]row, error) {
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		return nil, err
	}
	return fromEvents(path, events)
}

// fromEvents reconstructs attribution rows from KindBreakdown events, one
// table per (variant, detail), re-verifying that each event's components
// sum to its reported power (tolerating only float-printing rounding from
// the JSON round trip). src names the events' source in errors.
func fromEvents(src string, events []obs.Event) (map[table][]row, error) {
	out := make(map[table][]row)
	for i, ev := range events {
		if ev.Kind != obs.KindBreakdown {
			continue
		}
		bd, err := core.BreakdownFromMap(ev.Breakdown)
		if err != nil {
			return nil, fmt.Errorf("%s: event %d (%s): %w", src, i, ev.Workload, err)
		}
		if sum := bd.Total(); !closeEnough(sum, ev.PowerW) {
			return nil, fmt.Errorf("%s: event %d (%s): components sum to %g W but the event reports %g W — corrupted ledger",
				src, i, ev.Workload, sum, ev.PowerW)
		}
		t := table{ev.Variant, ev.Detail}
		out[t] = append(out[t], row{
			Kernel: ev.Workload, Category: ev.Category, MeasuredW: ev.MeasuredW, TotalW: ev.PowerW, Breakdown: bd,
		})
	}
	return out, nil
}

// closeEnough compares a recomputed component sum against the recorded
// total: bit-identical in-process, so the only slack allowed is the last
// ulp-level rounding a JSON encode/decode of the summands can introduce.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// fromLiveRun tunes a session, validates all four variants and folds the
// run's own ledger through fromEvents — the rows a -ledger report of the
// same run would print. With byCategory the run validates the
// category-tagged AI-inference pack instead of the classic Table 4 suite.
func fromLiveRun(archName string, full bool, workers int, byCategory bool, traceOut, ledgerOut string) (map[table][]row, error) {
	arch, err := config.ByName(archName)
	if err != nil {
		return nil, err
	}
	sc := accelwattch.Quick
	if full {
		sc = accelwattch.Full
	}
	run := cli.Start("awreport", arch.Name, traceOut, ledgerOut)
	fmt.Fprintf(os.Stderr, "awreport: tuning %s and validating all variants...\n", arch.Name)
	sess, err := accelwattch.NewSessionWithOptions(arch, sc, accelwattch.SessionOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	if byCategory {
		_, err = sess.ValidateAllByCategory()
	} else {
		_, err = sess.ValidateAll()
	}
	if err != nil {
		return nil, err
	}
	if err := run.Close(); err != nil {
		return nil, err
	}
	return fromEvents("live run "+run.ID, run.Led.Events())
}

// chargeRow is one tenant's accumulated energy ledger position.
type chargeRow struct {
	Tenant  string
	Events  int
	Ticks   int64
	ActiveJ float64
	IdleJ   float64
	TotalJ  float64
}

// energyFromLedger folds the ledger's energy-carrying events — KindEnergy
// attribution windows from the streaming collector, plus KindBreakdown
// estimate events awserve charged (Tenant set) — into per-tenant ledger
// positions. Each event's domain-split invariant is re-verified bit-for-bit
// on ingestion: the JSONL encoding round-trips floats exactly, so any
// mismatch means a corrupted or hand-edited ledger, not rounding.
func energyFromLedger(path string) ([]chargeRow, error) {
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int)
	var rows []chargeRow
	for i, ev := range events {
		if ev.Tenant == "" {
			continue
		}
		if math.Float64bits(ev.JoulesTotal) != math.Float64bits(ev.JoulesActive+ev.JoulesIdle) {
			return nil, fmt.Errorf("%s: event %d (tenant %s): joules_total %g is not bit-exactly active %g + idle %g — corrupted ledger",
				path, i, ev.Tenant, ev.JoulesTotal, ev.JoulesActive, ev.JoulesIdle)
		}
		j, ok := idx[ev.Tenant]
		if !ok {
			j = len(rows)
			idx[ev.Tenant] = j
			rows = append(rows, chargeRow{Tenant: ev.Tenant})
		}
		r := &rows[j]
		r.Events++
		r.Ticks += ev.Ticks
		r.ActiveJ += ev.JoulesActive
		r.IdleJ += ev.JoulesIdle
		r.TotalJ += ev.JoulesTotal
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no energy attribution events (was the ledger written by awmeterd or awserve?)", path)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tenant < rows[j].Tenant })
	return rows, nil
}

// printChargeback renders the per-tenant chargeback table: joules by power
// domain, each tenant's share of the fleet total, and a fleet footer.
func printChargeback(out io.Writer, rows []chargeRow) {
	var fleetA, fleetI, fleetT float64
	var fleetEvents int
	for _, r := range rows {
		fleetA += r.ActiveJ
		fleetI += r.IdleJ
		fleetT += r.TotalJ
		fleetEvents += r.Events
	}
	fmt.Fprintf(out, "== per-tenant energy chargeback (%d tenants) ==\n", len(rows))
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "tenant\tevents\tticks\tactive J\tidle J\ttotal J\tshare\t")
	for _, r := range rows {
		share := 0.0
		if fleetT > 0 {
			share = 100 * r.TotalJ / fleetT
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.6g\t%.6g\t%.6g\t%.1f%%\t\n",
			r.Tenant, r.Events, r.Ticks, r.ActiveJ, r.IdleJ, r.TotalJ, share)
	}
	fmt.Fprintf(w, "TOTAL\t%d\t\t%.6g\t%.6g\t%.6g\t\t\n", fleetEvents, fleetA, fleetI, fleetT)
	w.Flush()
	fmt.Fprintln(out)
}

// printCategoryTable folds one table's attribution rows by their
// inference-pack category tag: kernel count, mean measured and estimated
// watts, MAPE, and the category's mean idle-domain share (the parked rows
// are all idle by construction). Rows without a category tag come from a
// classic Table 4 run and are left out; a table without tagged rows prints
// nothing and reports false.
func printCategoryTable(title string, rows []row) bool {
	type agg struct {
		n           int
		measW, estW float64
		apeSum      float64
		idleW, totW float64
	}
	byCat := map[string]*agg{}
	var order []string
	for _, cat := range workloads.Categories() {
		order = append(order, string(cat))
	}
	tagged := 0
	for _, r := range rows {
		if r.Category == "" {
			continue
		}
		tagged++
		a := byCat[r.Category]
		if a == nil {
			a = &agg{}
			byCat[r.Category] = a
			found := false
			for _, c := range order {
				if c == r.Category {
					found = true
				}
			}
			if !found {
				order = append(order, r.Category)
			}
		}
		a.n++
		a.measW += r.MeasuredW
		a.estW += r.TotalW
		if r.MeasuredW != 0 {
			a.apeSum += 100 * math.Abs(r.TotalW-r.MeasuredW) / math.Abs(r.MeasuredW)
		}
		s := attr.Split(&r.Breakdown)
		a.idleW += s.IdleW
		a.totW += s.TotalW()
	}
	if tagged == 0 {
		return false
	}
	fmt.Printf("== %s: per-category power attribution (%d kernels) ==\n", title, tagged)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "category\tkernels\tmeas W\test W\tMAPE\tidle share\t")
	for _, cat := range order {
		a := byCat[cat]
		if a == nil {
			continue
		}
		n := float64(a.n)
		idleShare := 0.0
		if a.totW > 0 {
			idleShare = 100 * a.idleW / a.totW
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.2f%%\t%.1f%%\t\n",
			cat, a.n, a.measW/n, a.estW/n, a.apeSum/n, idleShare)
	}
	w.Flush()
	fmt.Println()
	return true
}

func printTable(title string, rows []row, perComponent bool) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Kernel < rows[j].Kernel })
	fmt.Printf("== %s: per-kernel power attribution (W) ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)

	var cols []string
	if perComponent {
		for c := 0; c < core.NumComponents; c++ {
			cols = append(cols, core.Component(c).String())
		}
	} else {
		for g := eval.Group(0); g < eval.NumGroups; g++ {
			cols = append(cols, g.String())
		}
	}
	fmt.Fprint(w, "kernel\tmeas\test")
	for _, c := range cols {
		fmt.Fprint(w, "\t", c)
	}
	fmt.Fprintln(w, "\t")

	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f", r.Kernel, r.MeasuredW, r.TotalW)
		if perComponent {
			for c := 0; c < core.NumComponents; c++ {
				fmt.Fprintf(w, "\t%.2f", r.Breakdown.Watts[c])
			}
		} else {
			g := eval.GroupBreakdown(r.Breakdown)
			for i := eval.Group(0); i < eval.NumGroups; i++ {
				fmt.Fprintf(w, "\t%.2f", g.Watts[i])
			}
		}
		fmt.Fprintln(w, "\t")
	}
	w.Flush()
	fmt.Println()
}
