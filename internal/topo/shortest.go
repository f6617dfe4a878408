package topo

import (
	"container/heap"
	"math"
	"sort"
)

// Weight assigns a cost to a link for path computation. DelayWeight is the
// usual choice ("shortest path" in the paper means lowest round-trip time).
type Weight func(Link) float64

// DelayWeight costs a link by its propagation delay in seconds, with a tiny
// per-hop epsilon so hop count breaks ties between equal-delay routes.
func DelayWeight(l Link) float64 {
	return l.Delay.Seconds() + 1e-9
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node NodeID
	dist float64
}

type pq []*pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(*pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// ShortestPath runs Dijkstra from src to dst under the given weight,
// skipping banned links and nodes (nil maps mean nothing banned). It
// reports ok=false when dst is unreachable.
func (g *Graph) ShortestPath(src, dst NodeID, w Weight, bannedLinks map[LinkID]bool, bannedNodes map[NodeID]bool) (Path, bool) {
	if w == nil {
		w = DelayWeight
	}
	dist := make([]float64, g.NumNodes())
	prevLink := make([]LinkID, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
		prevLink[i] = -1
	}
	dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	heap.Init(q)
	visited := make([]bool, g.NumNodes())
	for q.Len() > 0 {
		it := heap.Pop(q).(*pqItem)
		u := it.node
		if visited[u] {
			continue
		}
		visited[u] = true
		if u == dst {
			break
		}
		for _, lid := range g.OutLinks(u) {
			if bannedLinks[lid] {
				continue
			}
			l := g.Link(lid)
			if bannedNodes[l.To] {
				continue
			}
			cost := w(l)
			if cost < 0 {
				cost = 0
			}
			nd := dist[u] + cost
			if nd < dist[l.To] {
				dist[l.To] = nd
				prevLink[l.To] = lid
				heap.Push(q, &pqItem{node: l.To, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	// Reconstruct in reverse.
	var links []LinkID
	for at := dst; at != src; {
		lid := prevLink[at]
		links = append(links, lid)
		at = g.Link(lid).From
	}
	reverse(links)
	return g.pathFromLinks(src, links), true
}

func reverse(l []LinkID) {
	for i, j := 0, len(l)-1; i < j; i, j = i+1, j-1 {
		l[i], l[j] = l[j], l[i]
	}
}

func (g *Graph) pathFromLinks(src NodeID, links []LinkID) Path {
	nodes := []NodeID{src}
	for _, lid := range links {
		nodes = append(nodes, g.Link(lid).To)
	}
	return Path{Nodes: nodes, Links: links}
}

func (g *Graph) pathCost(p Path, w Weight) float64 {
	var c float64
	for _, lid := range p.Links {
		c += w(g.Link(lid))
	}
	return c
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// nondecreasing cost order, using Yen's algorithm.
func (g *Graph) KShortestPaths(src, dst NodeID, k int, w Weight) []Path {
	if w == nil {
		w = DelayWeight
	}
	best, ok := g.ShortestPath(src, dst, w, nil, nil)
	if !ok || k < 1 {
		return nil
	}
	found := []Path{best}
	var candidates []Path
	for len(found) < k {
		prev := found[len(found)-1]
		// For each spur node along the previous path, ban the link choices
		// of already-found paths that share the root, and reroute.
		for i := 0; i < len(prev.Links); i++ {
			spur := prev.Nodes[i]
			root := Path{Nodes: append([]NodeID(nil), prev.Nodes[:i+1]...),
				Links: append([]LinkID(nil), prev.Links[:i]...)}
			bannedLinks := map[LinkID]bool{}
			for _, f := range found {
				if i < len(f.Links) && samePrefix(f, root, i) {
					bannedLinks[f.Links[i]] = true
				}
			}
			bannedNodes := map[NodeID]bool{}
			for _, n := range root.Nodes[:len(root.Nodes)-1] {
				bannedNodes[n] = true
			}
			tail, ok := g.ShortestPath(spur, dst, w, bannedLinks, bannedNodes)
			if !ok {
				continue
			}
			cand := Path{
				Nodes: append(append([]NodeID(nil), root.Nodes...), tail.Nodes[1:]...),
				Links: append(append([]LinkID(nil), root.Links...), tail.Links...),
			}
			if !containsPath(found, cand) && !containsPath(candidates, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			return g.pathCost(candidates[a], w) < g.pathCost(candidates[b], w)
		})
		found = append(found, candidates[0])
		candidates = candidates[1:]
	}
	return found
}

func samePrefix(p, root Path, i int) bool {
	if len(p.Nodes) < i+1 {
		return false
	}
	for j := 0; j <= i; j++ {
		if p.Nodes[j] != root.Nodes[j] {
			return false
		}
	}
	for j := 0; j < i; j++ {
		if p.Links[j] != root.Links[j] {
			return false
		}
	}
	return true
}

func containsPath(list []Path, p Path) bool {
	for _, q := range list {
		if equalPath(p, q) {
			return true
		}
	}
	return false
}

func equalPath(p, q Path) bool {
	if len(p.Links) != len(q.Links) {
		return false
	}
	for i := range p.Links {
		if p.Links[i] != q.Links[i] {
			return false
		}
	}
	return p.Nodes[0] == q.Nodes[0]
}
