// Command ringctl is the command-line client for a Ring deployment
// started with ringd.
//
//	ringctl -nodes host0:7000,host1:7000 put mykey "some value"
//	ringctl -nodes host0:7000 put-in 3 mykey "erasure coded value"
//	ringctl -nodes host0:7000 get mykey
//	ringctl -nodes host0:7000 move mykey 2
//	ringctl -nodes host0:7000 move mykey srs3.2 rep3
//	ringctl -nodes host0:7000 move-prefix user/ srs3.2
//	ringctl -nodes host0:7000 delete mykey
//	ringctl -nodes host0:7000 join 7
//	ringctl -nodes host0:7000 leave 3
//	ringctl -nodes host0:7000 mkmemgest srs3.2
//	ringctl -nodes host0:7000 rmmemgest 4
//	ringctl -nodes host0:7000 set-default 2
//	ringctl -nodes host0:7000 describe 2
//	ringctl -nodes host0:7000 config
//	ringctl -http host0:8080,host1:8080 stats
//	ringctl -http host0:8080,host1:8080 stats -watch -interval 1s
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/status"
	"ring/internal/transport"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ringctl -nodes addr[,addr...] <command> [args]")
	fmt.Fprintln(os.Stderr, "commands: put, put-in, get, delete, move, move-prefix, join, leave, mkmemgest, rmmemgest, set-default, describe, config, stats")
	fmt.Fprintln(os.Stderr, "move <key> <to> [<from>] and move-prefix <prefix> <to> [<from>] take memgest IDs or scheme tokens (rep3, srs3.2)")
	fmt.Fprintln(os.Stderr, "stats scrapes the -http addresses (ringd -http endpoints), not -nodes")
	os.Exit(2)
}

func main() {
	nodes := flag.String("nodes", "127.0.0.1:7000", "comma-separated node addresses, in ID order")
	httpAddrs := flag.String("http", "127.0.0.1:8080", "comma-separated node HTTP status addresses (for stats)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// stats only talks to the HTTP status endpoints — dispatch it
	// before dialing the cluster fabric.
	if args[0] == "stats" {
		if err := runStats(os.Stdout, *httpAddrs, args[1:]); err != nil {
			log.Fatalf("ringctl: %v", err)
		}
		return
	}

	fabric := transport.NewTCPFabric()
	var bootstrap []string
	for i, a := range strings.Split(*nodes, ",") {
		logical := core.NodeAddr(proto.NodeID(i))
		fabric.Map(logical, strings.TrimSpace(a))
		bootstrap = append(bootstrap, logical)
	}

	c, err := client.Dial(fabric, bootstrap, client.Options{})
	if err != nil {
		log.Fatalf("ringctl: %v", err)
	}
	defer c.Close()

	die := func(err error) {
		if err != nil {
			log.Fatalf("ringctl: %v", err)
		}
	}
	need := func(n int) {
		if len(args) != n+1 {
			usage()
		}
	}
	parseMg := func(s string) proto.MemgestID {
		v, err := strconv.ParseUint(s, 10, 32)
		die(err)
		return proto.MemgestID(v)
	}
	// resolveMg accepts a numeric memgest ID or a scheme token (rep3,
	// srs3.2) resolved against the live configuration — so `move` can
	// be phrased by scheme, matching how operators think.
	resolveMg := func(s string) proto.MemgestID {
		if v, err := strconv.ParseUint(s, 10, 32); err == nil {
			return proto.MemgestID(v)
		}
		cfg := c.Config()
		sc, err := proto.ParseScheme(s, cfg.Shards())
		die(err)
		for _, m := range cfg.Memgests {
			if m.Scheme == sc {
				return m.ID
			}
		}
		die(fmt.Errorf("no memgest with scheme %v (create one with mkmemgest)", sc))
		return 0
	}

	switch args[0] {
	case "put":
		need(2)
		ver, err := c.Put(args[1], []byte(args[2]))
		die(err)
		fmt.Printf("OK version=%d\n", ver)
	case "put-in":
		need(3)
		ver, err := c.PutIn(args[2], []byte(args[3]), parseMg(args[1]))
		die(err)
		fmt.Printf("OK version=%d\n", ver)
	case "get":
		need(1)
		val, ver, err := c.Get(args[1])
		die(err)
		fmt.Printf("version=%d value=%q\n", ver, val)
	case "delete":
		need(1)
		die(c.Delete(args[1]))
		fmt.Println("OK")
	case "move", "move-prefix":
		// move <key> <to> [<from>] re-homes one key; move-prefix
		// <prefix> <to> [<from>] fans out across every coordinator.
		if len(args) != 3 && len(args) != 4 {
			usage()
		}
		var from proto.MemgestID
		if len(args) == 4 {
			from = resolveMg(args[3])
		}
		to := resolveMg(args[2])
		if args[0] == "move-prefix" {
			count, err := c.MovePrefix(args[1], from, to)
			die(err)
			fmt.Printf("OK moved=%d\n", count)
		} else {
			ver, err := c.MoveIf(args[1], from, to)
			die(err)
			fmt.Printf("OK version=%d\n", ver)
		}
	case "join":
		need(1)
		id, err := strconv.ParseUint(args[1], 10, 32)
		die(err)
		epoch, err := c.ResizeJoin(proto.NodeID(id))
		die(err)
		fmt.Printf("OK epoch=%d\n", epoch)
	case "leave":
		need(1)
		id, err := strconv.ParseUint(args[1], 10, 32)
		die(err)
		moved, epoch, err := c.ResizeLeave(proto.NodeID(id))
		die(err)
		fmt.Printf("OK moved=%d epoch=%d\n", moved, epoch)
	case "mkmemgest":
		need(1)
		sc, err := proto.ParseScheme(args[1], c.Config().Shards()) // every memgest shares the group's s
		die(err)
		id, err := c.CreateMemgest(sc)
		die(err)
		fmt.Printf("OK memgest=%d (%v)\n", id, sc)
	case "rmmemgest":
		need(1)
		die(c.DeleteMemgest(parseMg(args[1])))
		fmt.Println("OK")
	case "set-default":
		need(1)
		die(c.SetDefaultMemgest(parseMg(args[1])))
		fmt.Println("OK")
	case "describe":
		need(1)
		sc, err := c.GetMemgestDescriptor(parseMg(args[1]))
		die(err)
		fmt.Printf("%v (tolerates %d failures, %.2fx storage)\n", sc, sc.Tolerates(), sc.StorageOverhead())
	case "config":
		cfg := c.Config()
		fmt.Printf("epoch=%d leader=node/%d default=%d\n", cfg.Epoch, cfg.Leader, cfg.Default)
		fmt.Printf("coordinators=%v redundant=%v spares=%v\n", cfg.Coords, cfg.Redundant, cfg.Spares)
		for _, m := range cfg.Memgests {
			fmt.Printf("  memgest %d: %v redundant=%v\n", m.ID, m.Scheme, m.Redundant)
		}
	default:
		usage()
	}
}

// runStats implements the stats subcommand: scrape /debug/ringvars
// from every HTTP address, aggregate, and render — once, or on a loop
// with -watch. Factored from main so tests can drive it.
func runStats(w io.Writer, httpAddrs string, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	watch := fs.Bool("watch", false, "refresh continuously")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval with -watch")
	rounds := fs.Int("rounds", 0, "with -watch, stop after this many refreshes (0 = forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var addrs []string
	for _, a := range strings.Split(httpAddrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("stats: no HTTP addresses (use -http)")
	}
	if *watch {
		return status.WatchStats(w, addrs, *interval, *rounds)
	}
	cs, errs := status.CollectStats(addrs)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "ringctl: scrape error: %v\n", e)
	}
	if cs.Nodes == 0 {
		return fmt.Errorf("stats: no nodes answered")
	}
	status.RenderStats(w, cs)
	return nil
}
