// Command axmlrepo manages a persistent repository of AXML documents —
// the persistence side of an ActiveXML peer. Every document is stored
// with an optional schema and a manifest of checksums; "query" builds
// the document's F-guide (the Section 6.2 call index) as it opens it,
// lazy evaluation materialises only the relevant calls, and -save stores
// the enriched document back for the next invocation.
//
// Usage:
//
//	axmlrepo -dir repo put <name> <file.xml> [-schema file]  store a document
//	axmlrepo -dir repo get <name>                print a document
//	axmlrepo -dir repo list                      list stored documents
//	axmlrepo -dir repo delete <name>             remove a document
//	axmlrepo -dir repo query <name> <query> [-provider URL] [-save] [-explain]
//	                                             evaluate lazily; -save stores
//	                                             the materialised document
//	                                             back, -explain prints the
//	                                             span tree
//	axmlrepo -dir repo verify [name]             audit entries, read-only
//
// Flags may come before the subcommand or after its arguments; a "--"
// ends them. "verify" audits every stored document when no name is
// given, and exits nonzero if any manifest is missing, stale, corrupt or
// at an old format, or any stamped part does not match it; the next
// "get" or "query" of the entry rewrites its manifest.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/activexml/axml/internal/cli"
	"github.com/activexml/axml/internal/core"
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
		save       = fs.Bool("save", false, "query: store the materialised document back")
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
		return usage("missing command (put|get|list|delete|query|verify)")
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
		fmt.Fprintf(stdout, "stored %s (%d nodes)\n", rest[0], doc.Size())
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
		// The engine adopts the guide the open built and patches it through
		// every expansion. Incremental is on as in the other CLIs:
		// candidate validation keeps its memo across rounds.
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
			if err := rp.Put(rest[0], o.Doc, repo.PutOptions{Schema: o.Schema}); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "saved materialised %s (%d nodes)\n", rest[0], o.Doc.Size())
		}
	case "verify":
		names := rest
		if len(names) == 0 {
			if names, err = rp.List(); err != nil {
				return fail(err)
			}
		}
		bad := 0
		for _, name := range names {
			rep, err := rp.Verify(name)
			if err != nil {
				return fail(err)
			}
			if rep.OK {
				fmt.Fprintf(stdout, "ok   %s\n", name)
				continue
			}
			bad++
			for _, p := range rep.Problems {
				fmt.Fprintf(stdout, "FAIL %s: %s\n", name, p)
			}
		}
		if bad > 0 {
			fmt.Fprintf(stderr, "axmlrepo: %d of %d entries failed verification\n", bad, len(names))
			return 1
		}
	default:
		return usage("unknown command %q", cmd)
	}
	return 0
}
