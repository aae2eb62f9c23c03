// Command axmlrepo manages a persistent indexed repository of AXML
// documents — the persistence side of an ActiveXML peer. Every document
// is stored together with its serialized annotated F-guide (the
// Section 6.2 call index) and an optional schema, so "query" opens with
// a warm index instead of rebuilding it, lazy evaluation materialises
// only the relevant calls, and -save stores the enriched document AND
// its incrementally patched index back for the next invocation.
//
// Usage:
//
//	axmlrepo -dir repo put <name> <file.xml> [-schema file]  store a document
//	axmlrepo -dir repo get <name>                print a document
//	axmlrepo -dir repo list                      list stored documents
//	axmlrepo -dir repo delete <name>             remove a document (and index)
//	axmlrepo -dir repo query <name> <query> [-provider URL] [-save] [-explain]
//	                                             evaluate lazily over the warm
//	                                             index; -save stores the
//	                                             materialised document back,
//	                                             -explain prints the span tree
//	axmlrepo -dir repo index build [name]        force-rebuild the index
//	axmlrepo -dir repo index verify [name]       audit index against document
//	axmlrepo -dir repo index stats [name]        print index statistics
//
// The index subcommands apply to every stored document when no name is
// given. "verify" exits nonzero if any audited index is missing, stale,
// corrupt or disagrees with a fresh build; "build" repairs exactly those
// states.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("axmlrepo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir        = fs.String("dir", "axml-repo", "repository directory")
		schemaFile = fs.String("schema", "", "put: persist this schema alongside the document")
		provider   = fs.String("provider", "", "remote provider for query (default: built-in demo services)")
		save       = fs.Bool("save", false, "query: store the materialised document and patched index back")
		explain    = fs.Bool("explain", false, "query: print the evaluation's span tree to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(stderr, "axmlrepo: missing command (put|get|list|delete|query|index)")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "axmlrepo: %v\n", err)
		return 1
	}
	rp, err := repo.Open(*dir)
	if err != nil {
		return fail(err)
	}
	rp.Logger = log.New(stderr, "axmlrepo: ", 0)

	switch cmd, rest := rest[0], rest[1:]; cmd {
	case "put":
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "axmlrepo: put <name> <file.xml> [-schema file]")
			return 2
		}
		data, err := os.ReadFile(rest[1])
		if err != nil {
			return fail(err)
		}
		doc, err := tree.Unmarshal(data)
		if err != nil {
			return fail(err)
		}
		var opts repo.PutOptions
		if *schemaFile != "" {
			src, err := os.ReadFile(*schemaFile)
			if err != nil {
				return fail(err)
			}
			if opts.Schema, err = schema.Parse(string(src)); err != nil {
				return fail(fmt.Errorf("schema %s: %w", *schemaFile, err))
			}
		}
		if err := rp.Put(rest[0], doc, opts); err != nil {
			return fail(err)
		}
		man, err := rp.Manifest(rest[0])
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "stored %s (%d nodes, %d calls, %d indexed paths)\n",
			rest[0], man.Nodes, man.Calls, man.Paths)
	case "get":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "axmlrepo: get <name>")
			return 2
		}
		o, err := rp.Get(rest[0])
		if err != nil {
			return fail(err)
		}
		b, err := tree.MarshalIndent(o.Doc.Root)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", b)
	case "list":
		names, err := rp.List()
		if err != nil {
			return fail(err)
		}
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
	case "delete":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "axmlrepo: delete <name>")
			return 2
		}
		if err := rp.Delete(rest[0]); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "deleted %s\n", rest[0])
	case "query":
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "axmlrepo: query <name> <query>")
			return 2
		}
		o, err := rp.Get(rest[0])
		if err != nil {
			return fail(err)
		}
		q, err := pattern.Parse(rest[1])
		if err != nil {
			return fail(err)
		}
		// The persisted index opens the query warm: the engine adopts the
		// decoded guide and patches it through every expansion, so -save
		// persists it back without a rebuild. Incremental is on as in the
		// other CLIs: candidate validation keeps its memo across rounds.
		opt := core.Options{Strategy: core.LazyNFQ, UseGuide: true, Guide: o.Guide, Incremental: true}.WithSchema(o.Schema)
		var tracer *telemetry.Tracer
		if *explain {
			tracer = telemetry.NewTracer(telemetry.DefaultSpanCapacity)
			opt.Tracer = tracer
		}
		var reg *service.Registry
		if *provider != "" {
			client := &soap.Client{BaseURL: *provider}
			reg, err = client.RegistryFor()
			if err != nil {
				return fail(err)
			}
			opt.Clock = service.NewWallClock(false)
		} else {
			reg = workload.Hotels(workload.DefaultSpec()).Registry
		}
		out, err := core.Evaluate(o.Doc, q, reg, opt)
		if err != nil {
			return fail(err)
		}
		if tracer != nil {
			fmt.Fprintln(stderr, "explain:")
			telemetry.WriteTree(stderr, tracer.Spans(0))
		}
		fmt.Fprintf(stdout, "%d result(s), %d call(s) invoked\n", len(out.Results), out.Stats.CallsInvoked)
		for i, r := range out.Results {
			fmt.Fprintf(stdout, "%3d. %v\n", i+1, r.Values)
		}
		if *save {
			opts := repo.PutOptions{Schema: o.Schema}
			if fguide.Synced(o.Guide) {
				opts.Guide = o.Guide
			}
			if err := rp.Put(rest[0], o.Doc, opts); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "saved materialised %s (%d nodes)\n", rest[0], o.Doc.Size())
		}
	case "index":
		if len(rest) == 0 {
			fmt.Fprintln(stderr, "axmlrepo: index build|verify|stats [name]")
			return 2
		}
		sub, names := rest[0], rest[1:]
		if len(names) == 0 {
			all, err := rp.List()
			if err != nil {
				return fail(err)
			}
			names = all
		}
		switch sub {
		case "build":
			for _, name := range names {
				man, err := rp.Reindex(name)
				if err != nil {
					return fail(err)
				}
				fmt.Fprintf(stdout, "indexed %s (%d nodes, %d calls, %d paths)\n",
					name, man.Nodes, man.Calls, man.Paths)
			}
		case "verify":
			bad := 0
			for _, name := range names {
				rep, err := rp.VerifyIndex(name)
				if err != nil {
					return fail(err)
				}
				if rep.OK {
					fmt.Fprintf(stdout, "ok   %s (%d calls, %d paths)\n", name, rep.Calls, rep.Paths)
					continue
				}
				bad++
				for _, p := range rep.Problems {
					fmt.Fprintf(stdout, "FAIL %s: %s\n", name, p)
				}
			}
			if bad > 0 {
				fmt.Fprintf(stderr, "axmlrepo: %d of %d indexes failed verification\n", bad, len(names))
				return 1
			}
		case "stats":
			for _, name := range names {
				man, sum, err := rp.Stats(name)
				if err != nil {
					return fail(err)
				}
				if man == nil {
					fmt.Fprintf(stdout, "%s: no index (flat-store entry)\n", name)
					continue
				}
				fmt.Fprintf(stdout, "%s: format %d, %d nodes, %d calls, %d paths",
					name, man.Format, man.Nodes, man.Calls, man.Paths)
				if man.Schema != nil {
					fmt.Fprint(stdout, ", schema")
				}
				fmt.Fprintln(stdout)
				if sum == nil {
					continue
				}
				paths := make([]string, 0, len(sum.PerPath))
				for p := range sum.PerPath {
					paths = append(paths, p)
				}
				sort.Strings(paths)
				for _, p := range paths {
					svcs := make([]string, 0, len(sum.PerPath[p]))
					for s := range sum.PerPath[p] {
						svcs = append(svcs, s)
					}
					sort.Strings(svcs)
					for _, s := range svcs {
						fmt.Fprintf(stdout, "  %-40s %s ×%d\n", p, s, sum.PerPath[p][s])
					}
				}
			}
		default:
			fmt.Fprintf(stderr, "axmlrepo: unknown index subcommand %q\n", sub)
			return 2
		}
	default:
		fmt.Fprintf(stderr, "axmlrepo: unknown command %q\n", cmd)
		return 2
	}
	return 0
}
