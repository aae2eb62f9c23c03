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
// Flags may come before the subcommand or after its arguments; a "--"
// ends them.
// The index subcommands apply to every stored document when no name is
// given. "verify" exits nonzero if any audited index is missing, stale,
// corrupt or disagrees with a fresh build; "build" repairs exactly those
// states.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/activexml/axml/internal/cli"
	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/tree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("axmlrepo", stderr)
	var (
		dir        = fs.String("dir", "axml-repo", "repository directory")
		schemaFile = fs.String("schema", "", "put: persist this schema alongside the document")
		save       = fs.Bool("save", false, "query: store the materialised document and patched index back")
		provider   = cli.AddProvider(fs)
		explain    = cli.AddExplain(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "axmlrepo: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "axmlrepo: %v\n", err)
		return 1
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return usage("missing command (put|get|list|delete|query|index)")
	}
	rp, err := repo.Open(*dir)
	if err != nil {
		return fail(err)
	}
	rp.Logger = log.New(stderr, "axmlrepo: ", 0)

	switch cmd, rest := rest[0], rest[1:]; cmd {
	case "put":
		if len(rest) != 2 {
			return usage("put <name> <file.xml> [-schema file]")
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
			return usage("get <name>")
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
			return usage("delete <name>")
		}
		if err := rp.Delete(rest[0]); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "deleted %s\n", rest[0])
	case "query":
		if len(rest) != 2 {
			return usage("query <name> <query>")
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
		opt.Tracer = explain.Tracer(false)
		reg, clock, err := provider.Registry(0, nil)
		if err != nil {
			return fail(err)
		}
		opt.Clock = clock
		out, err := core.Evaluate(o.Doc, q, reg, opt)
		if err != nil {
			return fail(err)
		}
		explain.Print(stderr, opt.Tracer)
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
			return usage("index build|verify|stats [name]")
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
				for _, p := range cli.SortedKeys(sum.PerPath) {
					for _, s := range cli.SortedKeys(sum.PerPath[p]) {
						fmt.Fprintf(stdout, "  %-40s %s ×%d\n", p, s, sum.PerPath[p][s])
					}
				}
			}
		default:
			return usage("unknown index subcommand %q", sub)
		}
	default:
		return usage("unknown command %q", cmd)
	}
	return 0
}
