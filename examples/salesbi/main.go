// Sales BI: the business-analytics workload — aggregations, grouping
// and top-N over a reporting star schema, the use case that motivated
// natural language interfaces for business users.
package main

import (
	"context"
	"fmt"
	"log"

	nli "repro"
)

func main() {
	eng, err := nli.Open("sales", 2)
	if err != nil {
		log.Fatal(err)
	}

	questions := []string{
		"how much revenue",
		"total amount of order items per region",
		"how many orders per year",
		"average price of products per category",
		"which region has the most customers",
		"top 5 products by price",
		"products with price above the average",
		"how many customers in the North region",
	}

	for _, q := range questions {
		fmt.Printf("Q: %s\n", q)
		ans, err := eng.Ask(context.Background(), q, 0)
		if err != nil {
			fmt.Printf("   could not answer: %v\n\n", err)
			continue
		}
		fmt.Printf("   SQL: %s\n", ans.SQL)
		fmt.Println(indent(nli.FormatResult(ans.Result), "   "))
		fmt.Printf("   A: %s\n\n", ans.Response)
	}
}

func indent(s, prefix string) string {
	out := prefix
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += prefix
		}
	}
	return out
}
