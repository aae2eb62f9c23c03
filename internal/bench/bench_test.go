package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(Quick())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s: ragged row %v vs columns %v", e.ID, row, tab.Columns)
				}
			}
			s := tab.String()
			if !strings.Contains(s, e.ID) || !strings.Contains(s, tab.Columns[0]) {
				t.Fatalf("%s: rendering broken:\n%s", e.ID, s)
			}
		})
	}
}

// column returns the numeric value of a named column in a row.
func column(t *testing.T, tab Table, row []string, name string) float64 {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			v := strings.TrimSuffix(strings.TrimSuffix(row[i], "ms"), "KB")
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("column %s: %q: %v", name, row[i], err)
			}
			return f
		}
	}
	t.Fatalf("no column %s in %v", name, tab.Columns)
	return 0
}

// rowsWhere selects rows whose column equals the value.
func rowsWhere(tab Table, col, val string) [][]string {
	idx := -1
	for i, c := range tab.Columns {
		if c == col {
			idx = i
		}
	}
	var out [][]string
	for _, r := range tab.Rows {
		if idx >= 0 && r[idx] == val {
			out = append(out, r)
		}
	}
	return out
}

func TestE1Shape(t *testing.T) {
	tab, err := E1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// At the largest size, the typed lazy strategy must beat naive on
	// both calls and virtual time — the paper's headline shape.
	size := itoa(Quick().E1Sizes[len(Quick().E1Sizes)-1])
	var naiveTime, lazyTime, naiveCalls, lazyCalls float64
	for _, r := range rowsWhere(tab, "hotels", size) {
		switch r[1] {
		case "naive":
			naiveTime = column(t, tab, r, "virt-time")
			naiveCalls = column(t, tab, r, "calls")
		case "lazy-nfq-typed+par":
			lazyTime = column(t, tab, r, "virt-time")
			lazyCalls = column(t, tab, r, "calls")
		}
	}
	if naiveCalls <= lazyCalls || naiveTime <= lazyTime {
		t.Fatalf("lazy did not win: naive %v/%v vs lazy %v/%v\n%s",
			naiveCalls, naiveTime, lazyCalls, lazyTime, tab)
	}
	if naiveTime < 4*lazyTime {
		t.Fatalf("expected a large gap, got naive=%v lazy=%v\n%s", naiveTime, lazyTime, tab)
	}
}

func TestE2GapGrowsWithLatency(t *testing.T) {
	s := Scale{E2Latencies: []time.Duration{time.Millisecond, 100 * time.Millisecond}}
	tab, err := E2(s)
	if err != nil {
		t.Fatal(err)
	}
	lo := column(t, tab, tab.Rows[0], "naive-time") - column(t, tab, tab.Rows[0], "lazy-time")
	hi := column(t, tab, tab.Rows[1], "naive-time") - column(t, tab, tab.Rows[1], "lazy-time")
	if hi <= lo {
		t.Fatalf("absolute gap should grow with latency: %v vs %v\n%s", lo, hi, tab)
	}
}

func TestE3PushSavesTransfer(t *testing.T) {
	s := Scale{E3Selectivities: []int{2}}
	tab, err := E3(s)
	if err != nil {
		t.Fatal(err)
	}
	plain := column(t, tab, tab.Rows[0], "bytes-plain")
	push := column(t, tab, tab.Rows[0], "bytes-push")
	if push >= plain/2 {
		t.Fatalf("push saving too small: %v vs %v\n%s", push, plain, tab)
	}
}

func TestE5LayeringHelps(t *testing.T) {
	s := Scale{E5Depths: []int{3}}
	tab, err := E5(s)
	if err != nil {
		t.Fatal(err)
	}
	var flat, layered float64
	for _, r := range tab.Rows {
		switch r[1] {
		case "flat":
			flat = column(t, tab, r, "nfq-evals")
		case "layered":
			layered = column(t, tab, r, "nfq-evals")
		}
	}
	if layered >= flat {
		t.Fatalf("layering did not reduce NFQ evaluations: %v vs %v\n%s", layered, flat, tab)
	}
}

func TestE6LenientInvokesMore(t *testing.T) {
	s := Scale{E6Kinds: []int{4}}
	tab, err := E6(s)
	if err != nil {
		t.Fatal(err)
	}
	var exact, lenient float64
	for _, r := range tab.Rows {
		switch r[1] {
		case "exact":
			exact = column(t, tab, r, "calls")
		case "lenient":
			lenient = column(t, tab, r, "calls")
		}
	}
	if lenient <= exact {
		t.Fatalf("lenient should invoke more calls: %v vs %v\n%s", lenient, exact, tab)
	}
}

func TestByID(t *testing.T) {
	// The surviving list: the paper's own experiments and the fault sweep
	// no benchmark workload covers.
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() lists %d experiments, want %v", len(all), want)
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("All()[%d] = %s, want %s", i, all[i].ID, id)
		}
		if e, ok := ByID(id); !ok || e.ID != id {
			t.Fatalf("%s missing", id)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

func TestFormatters(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.50ms" {
		t.Fatalf("ms = %q", got)
	}
	if got := kb(2048); got != "2.0KB" {
		t.Fatalf("kb = %q", got)
	}
	if got := ratio(10, 0); got != "-" {
		t.Fatalf("ratio div0 = %q", got)
	}
	if got := ratio(100, 10); got != "10.0x" {
		t.Fatalf("ratio = %q", got)
	}
}
