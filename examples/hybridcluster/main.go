// Hybridcluster: a miniature of the paper's §7 deployment over REAL TCP
// sockets. Eight PIERSearch nodes listen on loopback, join one another,
// publish a small library and answer queries — the same stack cmd/deploy
// simulates at scale, here on live connections.
//
//	go run ./examples/hybridcluster
package main

import (
	"fmt"
	"log"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/wire"
)

func main() {
	log.SetFlags(0)
	transport := wire.NewTCPTransport()
	defer transport.Close()

	const n = 8
	var nodes []*dht.Node
	var engines []*pier.Engine
	var servers []*wire.Server
	for i := 0; i < n; i++ {
		ln, err := wire.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		node := dht.NewNode(dht.NodeInfo{ID: dht.RandomID(), Addr: ln.Addr().String()}, transport, dht.Config{})
		srv := wire.NewServer(node, ln)
		go srv.Serve() //nolint:errcheck // closed on exit
		engine := pier.NewEngine(node, pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(engine)
		nodes = append(nodes, node)
		engines = append(engines, engine)
		servers = append(servers, srv)
		fmt.Printf("node %d: %s @ %s\n", i, node.Info().ID.Short(), srv.Addr())
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	for i := 1; i < n; i++ {
		if err := nodes[i].JoinNetwork([]dht.NodeInfo{nodes[0].Info()}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nbootstrapped %d-node DHT over TCP loopback\n\n", n)

	library := []string{
		"Coldplay - Clocks.mp3",
		"Coldplay - Yellow.mp3",
		"Obscure Bootleg - Live at the Basement.mp3",
		"Field Recording - Thunderstorm 2003.wav.mp3",
	}
	for i, name := range library {
		pub := piersearch.NewPublisher(engines[i%n], piersearch.ModeBoth, piersearch.Tokenizer{})
		f := piersearch.File{Name: name, Size: 3_000_000, Host: servers[i%n].Addr(), Port: 6346}
		stats, err := pub.PublishFile(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node %d published %-46q (%d tuples)\n", i%n, name, stats.Tuples)
	}

	search := piersearch.NewSearch(engines[n-1], piersearch.Tokenizer{})
	for _, q := range []string{"coldplay", "obscure bootleg", "thunderstorm"} {
		results, stats, err := search.Query(q, piersearch.StrategyCache, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nsearch %-20q -> %d results (%d msgs over TCP)\n", q, len(results), stats.Messages)
		for _, r := range results {
			fmt.Printf("  %-46s served by %s\n", r.File.Name, r.File.Host)
		}
	}
}
