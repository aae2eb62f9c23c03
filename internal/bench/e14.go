package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/workload"
)

// E14 measures what the persistent index buys a restarting process:
// opening a stored document warm (document parse + index decode) against
// opening it cold (document parse + full F-guide rebuild + on-disk
// repair). Both opens must deliver the same index — the decoded guide is
// compared structurally against the rebuilt one — and the workload query
// evaluated over a warm open must return results bit-identical to a cold
// one. Timings are medians over several opens of a directory-backed
// repository, so the sweep reports what axmlserver actually pays at
// startup per document size.
func E14(s Scale) (Table, error) {
	t := Table{
		ID:      "E14",
		Title:   "persistent index: warm vs cold repository opens",
		Columns: []string{"hotels", "nodes", "calls", "index-bytes", "warm-open", "cold-open", "speedup"},
	}
	const iters = 5
	for _, hotels := range s.E14Sizes {
		spec := workload.DefaultSpec()
		spec.Hotels = hotels
		spec.HiddenHotels = hotels / 5
		w := workload.Hotels(spec)

		dir, err := os.MkdirTemp("", "axml-e14-*")
		if err != nil {
			return t, err
		}
		defer os.RemoveAll(dir)
		rp, err := repo.Open(dir)
		if err != nil {
			return t, err
		}
		rp.Logger = nil // cold opens are intentional, not reportable

		if err := rp.Put("world", w.Doc, repo.PutOptions{Schema: w.Schema}); err != nil {
			return t, err
		}
		man, err := rp.Manifest("world")
		if err != nil {
			return t, err
		}
		idx, err := os.Stat(filepath.Join(dir, "world"+repo.GuideExt))
		if err != nil {
			return t, err
		}

		var warmOpen *repo.Opened
		warm, err := median(iters, func() error {
			o, err := rp.Get("world")
			if err != nil {
				return err
			}
			if !o.Warm {
				return fmt.Errorf("E14: open of an intact entry was not warm")
			}
			warmOpen = o
			return nil
		})
		if err != nil {
			return t, err
		}

		var coldOpen *repo.Opened
		cold, err := median(iters, func() error {
			if err := rp.DropIndex("world"); err != nil {
				return err
			}
			o, err := rp.Get("world")
			if err != nil {
				return err
			}
			if o.Warm {
				return fmt.Errorf("E14: open right after DropIndex claimed warm")
			}
			coldOpen = o
			return nil
		})
		if err != nil {
			return t, err
		}

		// The decoded index must be the rebuilt one, structurally.
		if warmOpen.Guide.String() != coldOpen.Guide.String() {
			return t, fmt.Errorf("E14: warm and cold opens disagree on the index at %d hotels", hotels)
		}
		warmKeys, warmRes, err := e14Query(warmOpen, w)
		if err != nil {
			return t, fmt.Errorf("E14: warm query: %w", err)
		}
		coldKeys, _, err := e14Query(coldOpen, w)
		if err != nil {
			return t, fmt.Errorf("E14: cold query: %w", err)
		}
		if warmKeys != coldKeys {
			return t, fmt.Errorf("E14: warm and cold query results diverge at %d hotels", hotels)
		}
		if warmRes != w.ExpectedResults {
			return t, fmt.Errorf("E14: %d results, ground truth %d", warmRes, w.ExpectedResults)
		}

		t.Rows = append(t.Rows, []string{
			itoa(hotels), itoa(man.Nodes), itoa(man.Calls), itoa(int(idx.Size())),
			ms(warm), ms(cold), ratio(cold, warm),
		})
		t.Notes = append(t.Notes, fmt.Sprintf(
			"hotels=%d: warm open decodes %d indexed calls in %s vs %s rebuilding (%s); %d query results bit-identical",
			hotels, man.Calls, ms(warm), ms(cold), ratio(cold, warm), warmRes))
	}
	return t, nil
}

// e14Query evaluates the workload query over an opened entry with the
// opened guide adopted warm, returning an order-independent result key.
func e14Query(o *repo.Opened, w *workload.World) (string, int, error) {
	opt := core.Options{Strategy: core.LazyNFQ, UseGuide: true, Guide: o.Guide}.WithSchema(o.Schema)
	out, err := core.Evaluate(o.Doc, w.Query, w.Registry, opt)
	if err != nil {
		return "", 0, err
	}
	if !fguide.Synced(o.Guide) {
		return "", 0, fmt.Errorf("guide out of sync after evaluation")
	}
	keys := make([]string, 0, len(out.Results))
	for _, r := range out.Results {
		vars := make([]string, 0, len(r.Values))
		for k, v := range r.Values {
			vars = append(vars, k+"="+v)
		}
		sort.Strings(vars)
		keys = append(keys, strings.Join(vars, ";"))
	}
	sort.Strings(keys)
	return strings.Join(keys, "|"), len(out.Results), nil
}

// median times f over iters runs and returns the median duration.
func median(iters int, f func() error) (time.Duration, error) {
	times := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}
