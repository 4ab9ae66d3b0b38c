// Association-rule mining over Dodo, the paper's dmine application
// (§5.2.1) at example scale: Apriori over a transaction corpus whose
// regions are retained in cluster memory between runs — the second run
// reads everything from remote memory without touching the corpus
// "file" again.
//
// Run with: go run ./examples/datamining
package main

import (
	"fmt"
	"log"
	"time"

	"dodo"
	"dodo/internal/apps/dmine"
	"dodo/internal/sim"
)

// clk is the example\'s clock: examples run live against real
// daemons, so it is the wall clock.
var clk = sim.WallClock{}

const (
	transactions = 4000
	avgBasket    = 8
	items        = 400
	regionBytes  = 64 << 10 // the paper's dmine reads 128 KB; scaled down
)

func main() {
	// Deployment: manager + two donor imds. Keep-alives are slow so the
	// first client's exit does not reclaim its regions before run 2
	// (dmine's persistence pattern; production deployments tune this).
	mgr, err := dodo.ListenManager("127.0.0.1:0", dodo.ManagerConfig{
		KeepAliveInterval: time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close()
	for i := 0; i < 2; i++ {
		d, err := dodo.ListenIMD("127.0.0.1:0", dodo.IMDConfig{
			ManagerAddr: mgr.Addr(), PoolSize: 8 << 20, Epoch: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
	}
	waitForHosts(mgr, 2)

	// Build the corpus and serialize it into the backing store.
	corpus := dmine.Generate(dmine.GenConfig{
		Transactions: transactions, AvgSize: avgBasket, Items: items,
		Patterns: 8, PatternLen: 3, Seed: 7,
	})
	blob, err := dmine.EncodeCorpus(corpus)
	if err != nil {
		log.Fatal(err)
	}
	backing := dodo.NewMemBacking(77, len(blob))
	fmt.Printf("corpus: %d transactions, %d KB serialized\n", transactions, len(blob)>>10)

	// Run 1: reads the corpus from the backing store, caching every
	// region in cluster memory; exits WITHOUT mclosing (§5.2.1: "remote
	// memory regions are not deleted at the end of a run").
	run := func(clientAddr string, firstRun bool) {
		cli, err := dodo.Dial(clientAddr, mgr.Addr(), dodo.ClientConfig{ClientID: 1})
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Close()

		regions := (len(blob) + regionBytes - 1) / regionBytes
		data := make([]byte, 0, len(blob))
		buf := make([]byte, regionBytes)
		start := clk.Now()
		for r := 0; r < regions; r++ {
			off := int64(r * regionBytes)
			length := int64(regionBytes)
			if off+length > int64(len(blob)) {
				length = int64(len(blob)) - off
			}
			fd, err := cli.Mopen(length, backing, off)
			if err != nil {
				log.Fatalf("mopen region %d: %v", r, err)
			}
			if firstRun {
				// Populate: write the corpus bytes through to remote
				// memory and the backing store.
				if _, err := cli.Mwrite(fd, 0, blob[off:off+length]); err != nil {
					log.Fatalf("mwrite region %d: %v", r, err)
				}
			}
			n, err := cli.Mread(fd, 0, buf[:length])
			if err != nil {
				log.Fatalf("mread region %d: %v", r, err)
			}
			data = append(data, buf[:n]...)
			retain(fd)
		}
		loaded := clk.Now().Sub(start)

		got, err := dmine.DecodeCorpus(data)
		if err != nil {
			log.Fatalf("corpus corrupted in transit: %v", err)
		}
		res := dmine.Mine(got, transactions/20, 0.6, 3)
		fmt.Printf("%s: corpus loaded in %v (%d Apriori passes, %d frequent 2-sets, %d rules)\n",
			label(firstRun), loaded, res.Passes, len(res.Levels[1]), len(res.Rules))
		st := cli.Stats()
		fmt.Printf("   remote traffic: %d reads (%d KB), %d writes (%d KB)\n",
			st.RemoteReads, st.RemoteReadBytes>>10, st.RemoteWrites, st.RemoteWriteBytes>>10)
		// Exit without Mclose: regions persist in cluster memory.
	}

	run("127.0.0.1:0", true)
	fmt.Println("first client exited; regions retained in cluster memory")
	run("127.0.0.1:0", false) // second run: zero writes, all reads remote

	s := mgr.Stats()
	fmt.Printf("manager: %d regions still cached across %d hosts\n", s.Regions, s.IdleHosts)
}

// retain marks a region descriptor as deliberately left open: dmine
// exits without Mclose so its regions persist in cluster memory for the
// next run (§5.2.1, "remote memory regions are not deleted at the end
// of a run"). Ownership moves to the cluster's keep-alive reclamation.
func retain(fd int) { _ = fd }

func label(first bool) string {
	if first {
		return "run 1 (cold)"
	}
	return "run 2 (cached)"
}

func waitForHosts(mgr *dodo.Manager, want int) {
	deadline := clk.Now().Add(5 * time.Second)
	for clk.Now().Before(deadline) {
		if mgr.Stats().IdleHosts >= want {
			return
		}
		clk.Sleep(20 * time.Millisecond)
	}
	log.Fatalf("only %d of %d idle hosts registered", mgr.Stats().IdleHosts, want)
}
