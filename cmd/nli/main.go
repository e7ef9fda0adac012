// Command nli is the interactive natural-language query console: load
// a bundled dataset, type English questions, get the interpretation
// echo, the generated SQL, the result table and an English answer.
//
// Usage:
//
//	nli [-dataset university|geo|sales] [-scale N] [-sql] [-explain]
//
// Inside the console:
//
//	.help            show commands
//	.reset           clear the conversational context
//	.sql             toggle SQL display
//	.explain         toggle interpretation ranking display
//	:explain         show the execution plan of the last answer
//	:explain <q>     show the plan for a question (context-free)
//	.quit            exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	nli "repro"
)

func main() {
	datasetName := flag.String("dataset", "university", "dataset to load: university, geo or sales")
	scale := flag.Int("scale", 1, "dataset scale factor")
	schemaFile := flag.String("schema", "", "CREATE TABLE file for user data (overrides -dataset)")
	dataDir := flag.String("data", "", "directory of <table>.csv files (with -schema)")
	showSQL := flag.Bool("sql", true, "print the generated SQL")
	explain := flag.Bool("explain", false, "print all ranked interpretations")
	flag.Parse()

	var eng *nli.Engine
	var err error
	loaded := *datasetName
	if *schemaFile != "" {
		eng, err = nli.OpenDir(*schemaFile, *dataDir)
		loaded = *schemaFile
	} else {
		eng, err = nli.Open(*datasetName, *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nli:", err)
		os.Exit(1)
	}
	conv := eng.NewConversation()
	var last *nli.Answer

	fmt.Printf("nli — natural language interface to %q (%d rows)\n",
		loaded, eng.DB.TotalRows())
	fmt.Println(`Ask questions in English; ".help" lists commands.`)

	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("nlq> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			fmt.Println(".reset  clear conversation context\n.sql    toggle SQL display\n.explain toggle interpretation display\n:explain             show the plan of the last answer\n:explain <question>  plan a question (context-free)\n.quit   exit")
			continue
		case strings.HasPrefix(line, ":explain"):
			q := strings.TrimSpace(strings.TrimPrefix(line, ":explain"))
			if q == "" {
				// Bare :explain shows the plan of the previous answer,
				// which is the one the conversation context produced.
				if last == nil || last.Plan == nil {
					fmt.Println("nothing answered yet; ask a question first or use :explain <question>")
					continue
				}
				fmt.Printf("  SQL: %s\n", last.SQL)
				fmt.Println(indent(last.Plan.Explain(), "  "))
				continue
			}
			// With a question, interpret it context-free.
			stmt, err := eng.Translate(q)
			if err != nil {
				fmt.Println("  sorry:", err)
				continue
			}
			p, err := nli.ExplainParallel(eng.DB, stmt, eng.Options().Parallelism)
			if err != nil {
				fmt.Println("  sorry:", err)
				continue
			}
			fmt.Printf("  SQL: %s\n", stmt)
			fmt.Println(indent(p, "  "))
			continue
		case line == ".reset":
			conv.Reset()
			fmt.Println("context cleared")
			continue
		case line == ".sql":
			*showSQL = !*showSQL
			fmt.Println("sql display:", onOff(*showSQL))
			continue
		case line == ".explain":
			*explain = !*explain
			fmt.Println("explain display:", onOff(*explain))
			continue
		}

		ans, followUp, err := conv.Ask(context.Background(), line, 0)
		if err != nil {
			fmt.Println("  sorry:", err)
			continue
		}
		last = ans
		tag := ""
		if followUp {
			tag = " (refining the previous question)"
		}
		fmt.Printf("  I understood: %s%s\n", ans.Paraphrase, tag)
		if *explain {
			for i, r := range ans.Ranked {
				fmt.Printf("    #%d %s\n", i+1, r.Explain())
			}
		}
		if *showSQL {
			fmt.Printf("  SQL: %s\n", ans.SQL)
		}
		fmt.Println(indent(nli.FormatResult(ans.Result), "  "))
		fmt.Printf("  %s\n", ans.Response)
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
