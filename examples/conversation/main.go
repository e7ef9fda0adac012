// Conversation: a scripted multi-turn data-exploration dialogue showing
// context carryover — refinement, value substitution, focus change,
// counting and sorting follow-ups.
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
	conv := eng.NewConversation()

	turns := []string{
		"students in Computer Science",
		"only those with gpa over 3.5",
		"how many",
		"what about Mathematics",
		"show their names and gpa",
		"sort them by gpa descending",
		"list all departments", // a fresh question resets the context
	}

	for i, q := range turns {
		fmt.Printf("turn %d> %s\n", i+1, q)
		ans, followUp, err := conv.Ask(context.Background(), q, 0)
		if err != nil {
			fmt.Printf("   sorry: %v\n\n", err)
			continue
		}
		mode := "new question"
		if followUp {
			mode = "refines context"
		}
		fmt.Printf("   [%s] %s\n", mode, ans.Paraphrase)
		fmt.Printf("   SQL: %s\n", ans.SQL)
		fmt.Printf("   A: %s\n\n", ans.Response)
	}
}
