// Quickstart: load the bundled university dataset, ask a handful of
// English questions, and print what the interface understood, the SQL
// it generated, and the answer.
package main

import (
	"context"
	"fmt"
	"log"

	nli "repro"
)

func main() {
	eng, err := nli.Open("university", 1)
	if err != nil {
		log.Fatal(err)
	}

	questions := []string{
		"how many students are in Computer Science?",
		"students with gpa over 3.5",
		"what is the average salary of instructors per department",
		"which department has the most students",
		"instructors with salary above the average",
		"studnets with gpa over 3.9", // typo: repaired by spelling correction
	}

	for _, q := range questions {
		fmt.Printf("Q: %s\n", q)
		ans, err := eng.Ask(context.Background(), q, 0)
		if err != nil {
			fmt.Printf("   could not answer: %v\n\n", err)
			continue
		}
		for _, fix := range ans.Corrections {
			fmt.Printf("   (assuming %q means %q)\n", fix.From, fix.To)
		}
		fmt.Printf("   understood: %s\n", ans.Paraphrase)
		fmt.Printf("   SQL: %s\n", ans.SQL)
		fmt.Printf("   A: %s\n\n", ans.Response)
	}
}
