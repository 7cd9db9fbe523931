// Command tslc is the Trinity Specification Language compiler: it turns a
// .tsl script into a Go source file with typed structs, blob marshaling,
// cell accessors, and protocol stubs.
//
// Usage:
//
//	tslc -pkg moviegraph -o gen.go schema.tsl
//	tslc -check schema.tsl     # parse and type-check only
package main

import (
	"flag"
	"fmt"
	"os"

	"trinity/internal/tsl"
)

func main() {
	pkg := flag.String("pkg", "main", "package name for the generated code")
	out := flag.String("o", "", "output file (default stdout)")
	check := flag.Bool("check", false, "type-check only; generate nothing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tslc [-pkg name] [-o file.go] [-check] script.tsl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	script, err := tsl.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	if *check {
		fmt.Fprintf(os.Stderr, "%s: %d structs (%d cell), %d protocols\n",
			flag.Arg(0), len(script.Structs), len(script.CellStructs()), len(script.Protocols))
		return
	}
	code, err := tsl.Generate(*pkg, script)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(code)
		return
	}
	if err := os.WriteFile(*out, code, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tslc:", err)
	os.Exit(1)
}
