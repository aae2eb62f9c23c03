// Package cli is what the binaries under cmd/ share: a flag set whose
// counts and durations are never negative, and the flag groups more than
// one binary declares. A group declares its flags once, has Parse check
// them before the binary's first side effect, and builds what they
// describe.
package cli

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// FlagSet is a binary's flags, with its groups' checks and signed flags
// and the positional arguments Parse collected.
type FlagSet struct {
	*flag.FlagSet
	checks []func() error
	signed map[string]bool
	args   []string
}

// New returns the flag set of the named binary, reporting on stderr.
func New(name string, stderr io.Writer) *FlagSet {
	fs := &FlagSet{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), signed: map[string]bool{}}
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args, flags before and after positional arguments alike
// (a "--" ends the flags), then checks the values: no int or duration
// flag is negative, unless a group declared it signed, and every group's
// check passes. A failed check is reported on the set's output, naming
// the flag; any error from Parse is a usage error, exit code 2.
func (fs *FlagSet) Parse(args []string) error {
	for {
		if err := fs.FlagSet.Parse(args); err != nil {
			return err
		}
		rest := fs.FlagSet.Args()
		if i := len(args) - len(rest); len(rest) == 0 || i > 0 && args[i-1] == "--" {
			fs.args = append(fs.args, rest...)
			break
		}
		fs.args = append(fs.args, rest[0])
		args = rest[1:]
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		if d, ok := v.(time.Duration); ok {
			v = int(d)
		}
		if n, ok := v.(int); ok && n < 0 && !fs.signed[f.Name] && err == nil {
			err = fmt.Errorf("invalid value %q for flag -%s: must not be negative", f.Value, f.Name)
		}
	})
	for _, check := range fs.checks {
		if err == nil {
			err = check()
		}
	}
	if err != nil {
		fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	}
	return err
}

// Args returns the positional arguments, in order.
func (fs *FlagSet) Args() []string { return fs.args }

// Given returns the first of names that the command line set, or "".
func (fs *FlagSet) Given(names ...string) string {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range names {
		if set[name] {
			return name
		}
	}
	return ""
}

// Trace is -trace-out: a file the finished spans of a tracer stream to.
type Trace struct{ path *string }

func AddTrace(fs *FlagSet) *Trace {
	return &Trace{fs.String("trace-out", "", "stream finished telemetry spans to this file as JSONL")}
}

// On reports whether -trace-out names a file.
func (t *Trace) On() bool { return *t.path != "" }

// Open creates the -trace-out file and streams tr's finished spans to it;
// close makes the file durable. Without -trace-out it does nothing. Call
// it last before the run: a run that cannot start leaves no trace file.
func (t *Trace) Open(tr *telemetry.Tracer) (func() error, error) {
	if !t.On() {
		return func() error { return nil }, nil
	}
	f, err := os.Create(*t.path)
	if err != nil {
		return nil, err
	}
	tr.SetSink(telemetry.SinkJSONL(f))
	return f.Close, nil
}

// Explain is -explain: the span tree of an evaluation, printed after it.
type Explain struct{ on *bool }

func AddExplain(fs *FlagSet) *Explain {
	return &Explain{fs.Bool("explain", false, "print the evaluation's span tree (detect/invoke timings, pruned vs invoked) to stderr")}
}

// Tracer returns a tracer when -explain or also asks for one, else nil.
func (e *Explain) Tracer(also bool) *telemetry.Tracer {
	if !*e.on && !also {
		return nil
	}
	return telemetry.NewTracer(telemetry.DefaultSpanCapacity)
}

// Print writes the span tree of tr's spans to w under -explain.
func (e *Explain) Print(w io.Writer, tr *telemetry.Tracer) {
	if *e.on {
		fmt.Fprintln(w, "explain:")
		telemetry.WriteTree(w, tr.Spans(0))
	}
}

// World is -hotels: the size of the demo world.
type World struct{ hotels *int }

func AddWorld(fs *FlagSet) *World {
	return &World{fs.Int("hotels", 40, "extensional hotels in the demo world (axmlload -verify needs the server's value)")}
}

// Spec is the demo world of -hotels extensional hotels, a fifth of them
// hidden behind service calls — the one rule that makes axmlserver's
// world and the world axmlload verifies against the same.
func (w *World) Spec() workload.HotelSpec {
	spec := workload.DefaultSpec()
	spec.Hotels = *w.hotels
	spec.HiddenHotels = *w.hotels / 5
	return spec
}

// Provider is -provider: where a client's services are invoked.
type Provider struct{ url *string }

func AddProvider(fs *FlagSet) *Provider {
	return &Provider{fs.String("provider", "", "remote provider base URL (default: built-in demo services)")}
}

// Registry resolves -provider: a remote provider's services on the wall
// clock, each call bounded by timeout (0 = none) and timed on metrics, or
// the demo world's on a virtual clock.
func (p *Provider) Registry(timeout time.Duration, metrics *telemetry.Registry) (*service.Registry, service.Clock, error) {
	if *p.url == "" {
		return workload.Hotels(workload.DefaultSpec()).Registry, &service.SimClock{}, nil
	}
	reg, err := (&soap.Client{BaseURL: *p.url, Timeout: timeout, Metrics: metrics}).RegistryFor()
	return reg, service.NewWallClock(false), err
}

// SortedKeys returns m's keys in ascending order, for output that does
// not depend on map iteration.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
