// Geography: a LUNAR/GEOBASE-flavored factual question-answering
// session over the world-geography dataset, including superlatives,
// nested comparisons against named entities, and ambiguity display.
package main

import (
	"context"
	"fmt"
	"log"

	nli "repro"
)

func main() {
	eng, err := nli.Open("geo", 1)
	if err != nil {
		log.Fatal(err)
	}

	questions := []string{
		"what is the population of Brazil",
		"the longest river",
		"which country has the largest area",
		"rivers longer than the Rhine",
		"mountains higher than Mont Blanc",
		"cities with population over 10 million",
		"total population of countries per continent",
		"countries not in Europe sorted by gdp descending",
		"top 3 countries by population",
	}

	for _, q := range questions {
		fmt.Printf("Q: %s\n", q)
		ans, err := eng.Ask(context.Background(), q, 0)
		if err != nil {
			fmt.Printf("   could not answer: %v\n\n", err)
			continue
		}
		if amb := ans.Ambiguity(); amb.Candidates > 1 {
			fmt.Printf("   (%d readings; chose the best-connected one)\n", amb.Candidates)
		}
		fmt.Printf("   understood: %s\n", ans.Paraphrase)
		fmt.Printf("   A: %s\n\n", ans.Response)
	}

	// Show a full result table once.
	ans, err := eng.Ask(context.Background(), "top 5 countries by gdp", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q: top 5 countries by gdp")
	fmt.Println(nli.FormatResult(ans.Result))
}
