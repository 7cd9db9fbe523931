package memcloud

import (
	"context"
	"sync"

	"trinity/internal/msg"
)

// Proxy is the middle tier of the paper's Figure 1: a Trinity component
// that "only handles messages but does not own any data", typically used
// as an information aggregator between clients and slaves. A proxy holds
// a messaging endpoint and a replica of the addressing table, so it can
// route cell operations to owners and fan requests out to every slave.
type Proxy struct {
	cloud *Cloud
	node  *msg.Node
	id    msg.MachineID
}

// NewProxy attaches a proxy to the cloud's network. Proxies get machine
// IDs above the slave range. The endpoint goes through c.endpoint so
// proxies sit behind the same TransportWrap (chaos injection) as slaves.
func (c *Cloud) NewProxy() *Proxy {
	id := msg.MachineID(len(c.slaves) + 1000)
	node := msg.NewNode(c.endpoint(id), c.cfg.Msg)
	return &Proxy{cloud: c, node: node, id: id}
}

// ID returns the proxy's machine id.
func (p *Proxy) ID() msg.MachineID { return p.id }

// Node exposes the proxy's messaging runtime (to register aggregation
// protocols of its own).
func (p *Proxy) Node() *msg.Node { return p.node }

// Close shuts the proxy down.
func (p *Proxy) Close() error { return p.node.Close() }

// Get fetches a cell by routing the request to its owner slave.
func (p *Proxy) Get(ctx context.Context, key uint64) ([]byte, error) {
	owner := p.ownerOf(key)
	resp, err := p.node.Call(ctx, owner, cellOps[cellGet].proto, encodeKV(key, nil))
	return resp, remoteErr(err)
}

// Put stores a cell via its owner slave.
func (p *Proxy) Put(ctx context.Context, key uint64, val []byte) error {
	owner := p.ownerOf(key)
	_, err := p.node.Call(ctx, owner, cellOps[cellPut].proto, encodeKV(key, val))
	return remoteErr(err)
}

// ownerOf consults a slave's addressing-table replica (proxies piggyback
// on slave 0's view; a production proxy would keep its own member).
func (p *Proxy) ownerOf(key uint64) msg.MachineID {
	return p.cloud.slaves[0].Owner(key)
}

// Owner exposes the proxy's view of a key's owning machine, so the fetch
// pipeline can route batches through a proxy endpoint.
func (p *Proxy) Owner(key uint64) msg.MachineID { return p.ownerOf(key) }

// RefreshTable refreshes the addressing-table replica the proxy routes by.
func (p *Proxy) RefreshTable(ctx context.Context) { p.cloud.slaves[0].RefreshTable(ctx) }

// ReportFailure reports machine m as unreachable through the proxy's
// table source.
func (p *Proxy) ReportFailure(ctx context.Context, m msg.MachineID) error {
	return p.cloud.slaves[0].ReportFailure(ctx, m)
}

// LocalGet never serves a read locally: a proxy "only handles messages
// but does not own any data" (paper Figure 1), so every key is remote.
func (p *Proxy) LocalGet(key uint64) ([]byte, bool, error) { return nil, false, nil }

// LocalMultiPut never applies a batch locally for the same reason: the
// write pipeline must ship every batch over the wire when it fronts a
// proxy endpoint.
func (p *Proxy) LocalMultiPut(items []MultiPutItem) ([]byte, bool) { return nil, false }

// ScatterGather is the aggregator pattern the paper describes ("a proxy
// may serve as an information aggregator: it dispatches requests from
// clients to slaves and sends results back after aggregating the partial
// results"): it calls the protocol on every slave in parallel and hands
// the replies to the combiner in machine order.
func (p *Proxy) ScatterGather(ctx context.Context, proto msg.ProtocolID, request []byte, combine func(machine msg.MachineID, reply []byte) error) error {
	type result struct {
		machine msg.MachineID
		reply   []byte
		err     error
		ok      bool
	}
	replies := make([]result, len(p.cloud.slaves))
	var wg sync.WaitGroup
	for i, s := range p.cloud.slaves {
		if !s.alive.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, target msg.MachineID) {
			defer wg.Done()
			reply, err := p.node.Call(ctx, target, proto, request)
			replies[i] = result{machine: target, reply: reply, err: err, ok: true}
		}(i, s.ID())
	}
	wg.Wait()
	for _, r := range replies {
		if !r.ok {
			continue // dead slave skipped
		}
		if r.err != nil {
			return r.err
		}
		if err := combine(r.machine, r.reply); err != nil {
			return err
		}
	}
	return nil
}
