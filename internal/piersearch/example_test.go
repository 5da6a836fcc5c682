package piersearch_test

import (
	"fmt"
	"log"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
)

// Example shows the whole PIERSearch lifecycle: build a DHT, register the
// catalog, publish a file and answer a keyword query.
func Example() {
	cluster, err := dht.NewCluster(16, 42, dht.Config{K: 8, Alpha: 2, Replicate: 2})
	if err != nil {
		log.Fatal(err)
	}
	engines := make([]*pier.Engine, len(cluster.Nodes))
	for i, node := range cluster.Nodes {
		engines[i] = pier.NewEngine(node, pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(engines[i])
	}

	pub := piersearch.NewPublisher(engines[0], piersearch.ModeBoth, piersearch.Tokenizer{})
	stats, err := pub.PublishFile(piersearch.File{
		Name: "Basement Demo - Hidden Track.mp3",
		Size: 2_000_000, Host: "10.0.0.4", Port: 6346,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %d tuples for %d keywords\n", stats.Tuples, stats.Keywords)

	search := piersearch.NewSearch(engines[9], piersearch.Tokenizer{})
	results, _, err := search.Query("basement hidden", piersearch.StrategyJoin, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("found %s at %s:%d\n", r.File.Name, r.File.Host, r.File.Port)
	}
	// Output:
	// published 9 tuples for 4 keywords
	// found Basement Demo - Hidden Track.mp3 at 10.0.0.4:6346
}

// ExampleTokenizer shows keyword extraction with the paper's stopword
// handling ("MP3" and "the" are never indexed).
func ExampleTokenizer() {
	tk := piersearch.Tokenizer{}
	fmt.Println(tk.Tokenize("Madonna - The Best of.mp3"))
	// Output:
	// [madonna best]
}
