#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/log.h"

namespace sn40l::sim {

const char *
topologyName(Topology topology)
{
    switch (topology) {
      case Topology::Star: return "star";
      case Topology::Mesh2D: return "mesh";
      case Topology::Torus2D: return "torus";
      case Topology::FatTree: return "fat-tree";
    }
    panic("topologyName: unknown topology");
}

Topology
topologyFromName(const std::string &name)
{
    if (name == "star")
        return Topology::Star;
    if (name == "mesh" || name == "mesh2d")
        return Topology::Mesh2D;
    if (name == "torus" || name == "torus2d")
        return Topology::Torus2D;
    if (name == "fat-tree" || name == "fattree")
        return Topology::FatTree;
    fatal("unknown topology '" + name +
          "' (expected star, mesh, torus, or fat-tree)");
}

void
validateNetworkConfig(const NetworkConfig &cfg)
{
    if (cfg.endpoints < 1)
        fatal("NetworkConfig: need at least one endpoint");
    if (!(cfg.linkBytesPerSec > 0.0))
        fatal("NetworkConfig: non-positive link bandwidth");
    if (cfg.linkLatency < 0)
        fatal("NetworkConfig: negative link latency");
    if (cfg.linkLatency > kMaxTick / 2)
        fatal("NetworkConfig: link latency past half the tick range");
    if (cfg.bufferFlits < 1)
        fatal("NetworkConfig: need at least one buffer flit (credit)");
    if (!(cfg.flitBytes > 0.0))
        fatal("NetworkConfig: non-positive flit size");
    if (cfg.maxFlitsPerMessage < 1)
        fatal("NetworkConfig: need at least one flit per message");
    if (cfg.meshCols < 0)
        fatal("NetworkConfig: negative mesh width");
    if (cfg.fatTreeRadix < 1 || cfg.fatTreeSpines < 1)
        fatal("NetworkConfig: fat-tree radix and spine count must be "
              "positive");
}

Network::Network(EventQueue &eq, const NetworkConfig &cfg)
    : eq_(eq), cfg_(cfg)
{
    validateNetworkConfig(cfg_);
    switch (cfg_.topology) {
      case Topology::Star:
        buildStar();
        break;
      case Topology::Mesh2D:
        buildGrid(/*wrap=*/false);
        break;
      case Topology::Torus2D:
        buildGrid(/*wrap=*/true);
        break;
      case Topology::FatTree:
        buildFatTree();
        break;
    }
    buildPorts();
}

int
Network::addLink(int from, int to)
{
    Link l;
    l.from = from;
    l.to = to;
    l.credits = cfg_.bufferFlits;
    int id = static_cast<int>(links_.size());
    links_.push_back(std::move(l));
    linkIndex_.emplace(std::make_pair(from, to), id);
    return id;
}

void
Network::buildStar()
{
    const int E = cfg_.endpoints;
    numNodes_ = E + 1; // endpoints + the hub switch
    for (int e = 0; e < E; ++e) {
        addLink(e, E);
        addLink(E, e);
    }
}

void
Network::buildGrid(bool wrap)
{
    const int E = cfg_.endpoints;
    meshCols_ = cfg_.meshCols > 0
        ? cfg_.meshCols
        : std::max(1, static_cast<int>(std::ceil(std::sqrt(
              static_cast<double>(E)))));
    meshRows_ = (E + meshCols_ - 1) / meshCols_;
    // Every grid cell is a router; the first `endpoints` cells are
    // also terminals. Routes may pass through terminal-less cells.
    numNodes_ = meshCols_ * meshRows_;
    auto id = [this](int x, int y) { return y * meshCols_ + x; };
    for (int y = 0; y < meshRows_; ++y) {
        for (int x = 0; x < meshCols_; ++x) {
            if (x + 1 < meshCols_) {
                addLink(id(x, y), id(x + 1, y));
                addLink(id(x + 1, y), id(x, y));
            }
            if (y + 1 < meshRows_) {
                addLink(id(x, y), id(x, y + 1));
                addLink(id(x, y + 1), id(x, y));
            }
        }
    }
    if (wrap) {
        // Wrap links only when they are not duplicates of the mesh
        // links (a 2-wide dimension already has both directions).
        if (meshCols_ > 2)
            for (int y = 0; y < meshRows_; ++y) {
                addLink(id(meshCols_ - 1, y), id(0, y));
                addLink(id(0, y), id(meshCols_ - 1, y));
            }
        if (meshRows_ > 2)
            for (int x = 0; x < meshCols_; ++x) {
                addLink(id(x, meshRows_ - 1), id(x, 0));
                addLink(id(x, 0), id(x, meshRows_ - 1));
            }
    }
}

void
Network::buildFatTree()
{
    const int E = cfg_.endpoints;
    const int r = cfg_.fatTreeRadix;
    const int leaves = (E + r - 1) / r;
    const int spines = cfg_.fatTreeSpines;
    numNodes_ = E + leaves + spines;
    for (int e = 0; e < E; ++e) {
        int leaf = E + e / r;
        addLink(e, leaf);
        addLink(leaf, e);
    }
    for (int l = 0; l < leaves; ++l)
        for (int s = 0; s < spines; ++s) {
            addLink(E + l, E + leaves + s);
            addLink(E + leaves + s, E + l);
        }
}

void
Network::buildPorts()
{
    std::vector<int> in_degree(static_cast<std::size_t>(numNodes_), 0);
    for (Link &l : links_)
        l.inSlot = in_degree[static_cast<std::size_t>(l.to)]++;
    for (Link &l : links_)
        l.portOf.assign(
            static_cast<std::size_t>(
                in_degree[static_cast<std::size_t>(l.from)]) + 1,
            -1);
}

std::vector<int>
Network::gridRoute(int src, int dst, bool wrap) const
{
    std::vector<int> path;
    int x = src % meshCols_, y = src / meshCols_;
    const int dx = dst % meshCols_, dy = dst / meshCols_;
    auto id = [this](int cx, int cy) { return cy * meshCols_ + cx; };
    auto hop = [this, &path](int a, int b) {
        path.push_back(linkIndex_.at(std::make_pair(a, b)));
    };
    // Dimension order: X first, then Y. On a torus take the shorter
    // direction (ties go positive), stepping through wrap links.
    while (x != dx) {
        int fwd = (dx - x + meshCols_) % meshCols_;
        int nx;
        if (wrap && meshCols_ > 2 &&
            fwd > meshCols_ - fwd) // backward is strictly shorter
            nx = (x + meshCols_ - 1) % meshCols_;
        else if (wrap && meshCols_ > 2)
            nx = (x + 1) % meshCols_;
        else
            nx = x < dx ? x + 1 : x - 1;
        hop(id(x, y), id(nx, y));
        x = nx;
    }
    while (y != dy) {
        int fwd = (dy - y + meshRows_) % meshRows_;
        int ny;
        if (wrap && meshRows_ > 2 && fwd > meshRows_ - fwd)
            ny = (y + meshRows_ - 1) % meshRows_;
        else if (wrap && meshRows_ > 2)
            ny = (y + 1) % meshRows_;
        else
            ny = y < dy ? y + 1 : y - 1;
        hop(id(x, y), id(x, ny));
        y = ny;
    }
    return path;
}

std::vector<int>
Network::computeRoute(int src, int dst) const
{
    const int E = cfg_.endpoints;
    std::vector<int> path;
    auto hop = [this, &path](int a, int b) {
        path.push_back(linkIndex_.at(std::make_pair(a, b)));
    };
    switch (cfg_.topology) {
      case Topology::Star:
        hop(src, E);
        hop(E, dst);
        break;
      case Topology::Mesh2D:
        return gridRoute(src, dst, /*wrap=*/false);
      case Topology::Torus2D:
        return gridRoute(src, dst, /*wrap=*/true);
      case Topology::FatTree: {
        const int r = cfg_.fatTreeRadix;
        const int leaves = (E + r - 1) / r;
        int ls = E + src / r, ld = E + dst / r;
        hop(src, ls);
        if (ls != ld) {
            // Deterministic spine pick per leaf pair: static path
            // diversity without per-packet adaptivity.
            int spine = E + leaves +
                (src / r * 131 + dst / r) % cfg_.fatTreeSpines;
            hop(ls, spine);
            hop(spine, ld);
        }
        hop(ld, dst);
        break;
      }
    }
    return path;
}

const std::vector<int> &
Network::route(int src, int dst)
{
    if (src < 0 || src >= cfg_.endpoints || dst < 0 ||
        dst >= cfg_.endpoints)
        fatal("Network: endpoint out of range");
    auto key = std::make_pair(src, dst);
    auto it = routes_.find(key);
    if (it == routes_.end())
        it = routes_.emplace(key, computeRoute(src, dst)).first;
    return it->second;
}

double
Network::pathCongestion(int src, int dst)
{
    double c = 0.0;
    for (int li : route(src, dst)) {
        const Link &l = links_[static_cast<std::size_t>(li)];
        // Occupancy scaled by the link's serialization stretch: a
        // backlog on a slow link takes rateFactor times longer to
        // drain, and an *empty* degraded link still advertises its
        // stretch — a purely reactive signal would keep trickling
        // traffic onto a 40x link until the queue built, each trickle
        // head-of-line blocking the shared upstream hops.
        double occ = static_cast<double>(l.queued);
        if (l.freeAt > eq_.now())
            occ += 1.0;
        c += occ * l.rateFactor + (l.rateFactor - 1.0);
    }
    return c;
}

void
Network::setEndpointLinkFactor(int endpoint, double factor)
{
    if (endpoint < 0 || endpoint >= cfg_.endpoints)
        fatal("Network: endpoint out of range");
    if (!(factor >= 1.0))
        fatal("Network: link degrade factor must be at least 1");
    for (Link &l : links_)
        if (l.from == endpoint || l.to == endpoint)
            l.rateFactor = factor;
}

int
Network::allocMessage()
{
    if (!freeIds_.empty()) {
        int id = freeIds_.back();
        freeIds_.pop_back();
        return id;
    }
    messages_.emplace_back();
    return static_cast<int>(messages_.size()) - 1;
}

void
Network::freeMessage(int msg)
{
    Message &m = messages_[static_cast<std::size_t>(msg)];
    m = Message{};
    freeIds_.push_back(msg);
}

void
Network::send(int src, int dst, double bytes, Callback on_delivered)
{
    if (!(bytes >= 0.0 && bytes <= std::numeric_limits<double>::max()))
        fatal("Network: message size must be finite and non-negative");
    ++messagesSent_;
    if (src == dst) {
        // Local delivery: no link is touched, but the completion
        // still fires from an event so callers see one code path.
        ++inFlight_;
        eq_.schedule(
            eq_.now(),
            [this, cb = std::move(on_delivered)]() {
                --inFlight_;
                ++messagesDelivered_;
                if (cb)
                    cb();
            },
            "net.local");
        return;
    }
    const std::vector<int> &path = route(src, dst);
    double chunks = std::ceil(bytes / cfg_.flitBytes);
    int flits = chunks < static_cast<double>(cfg_.maxFlitsPerMessage)
        ? std::max(1, static_cast<int>(chunks))
        : cfg_.maxFlitsPerMessage;
    int id = allocMessage();
    Message &m = messages_[static_cast<std::size_t>(id)];
    m.path = &path;
    m.chunkBytes = bytes / static_cast<double>(flits);
    m.flits = flits;
    m.delivered = 0;
    m.onDelivered = std::move(on_delivered);
    ++inFlight_;
    // The source NIC queues the whole message at once; credit-based
    // backpressure then paces it hop by hop (the injection queue is
    // the sender stalling, not a drop).
    pushFlits(path[0], /*upstream_link=*/-1, id, 0, flits);
    pump(path[0]);
}

void
Network::pushFlits(int link, int upstream_link, int msg, int hop,
                   int count)
{
    Link &l = links_[static_cast<std::size_t>(link)];
    std::size_t slot = upstream_link < 0
        ? l.portOf.size() - 1
        : static_cast<std::size_t>(
              links_[static_cast<std::size_t>(upstream_link)].inSlot);
    // Ports open in first-push order; round-robin walks that order.
    int &port = l.portOf[slot];
    if (port < 0) {
        port = static_cast<int>(l.q.size());
        l.upstream.push_back(upstream_link);
        l.q.emplace_back();
    }
    Fifo<Run> &fifo = l.q[static_cast<std::size_t>(port)];
    if (!fifo.empty() && fifo.back().msg == msg && fifo.back().hop == hop)
        fifo.back().count += count;
    else
        fifo.push_back(Run{msg, hop, count});
    l.queued += count;
}

void
Network::arm(int link, Tick when)
{
    Link &l = links_[static_cast<std::size_t>(link)];
    if (l.armed)
        return;
    l.armed = true;
    l.txWhen = when;
    l.txSeq = eq_.reserve(when);
    eq_.scheduleReserved(
        when, l.txSeq,
        [this, link]() {
            links_[static_cast<std::size_t>(link)].armed = false;
            pump(link);
        },
        "net.tx");
    wakeOnCollision(link);
}

/**
 * The downstream buffer slot of @p link frees: its credit lands one
 * link latency from now, at the key a credit event scheduled here
 * would have. Most returns never need that event; see wake().
 */
void
Network::returnCredit(int link)
{
    Link &l = links_[static_cast<std::size_t>(link)];
    Tick when = eq_.now() + cfg_.linkLatency;
    Return r{when, eq_.reserve(when)};
    l.returns.push_back(r);
    // Flits queued and no transmit armed means no credits (the pump
    // invariant): the link is starved and waits for exactly this
    // return, unless an earlier one already has an event.
    if (l.queued > 0 && !l.armed && !l.waking)
        wake(link, r);
}

/** Credit every return of @p l whose key is below (now, below_seq). */
void
Network::creditReturns(Link &l, std::uint64_t below_seq)
{
    const Tick now = eq_.now();
    while (!l.returns.empty()) {
        const Return &r = l.returns.front();
        if (r.when > now || (r.when == now && r.seq >= below_seq))
            break;
        l.returns.pop_front();
        ++l.credits;
    }
}

/**
 * Give return @p r a real event. A credit return only matters to the
 * link when it finds the link starved (after a stall, the first return
 * restarts it) or lands on the armed transmit's tick ahead of it with
 * the wire free (then it, not the transmit, sends the next flit);
 * every other return would run a pump() that does nothing.
 */
void
Network::wake(int link, Return r)
{
    links_[static_cast<std::size_t>(link)].waking = true;
    eq_.scheduleReserved(
        r.when, r.seq,
        [this, link]() {
            Link &l = links_[static_cast<std::size_t>(link)];
            l.waking = false;
            creditReturns(l, eq_.currentSeq() + 1); // this one too
            pump(link);
            wakeOnCollision(link);
        },
        "net.credit");
}

/**
 * If a pending return of the armed @p link lands on the transmit's
 * tick ahead of it while the wire is free by then, wake the first one.
 */
void
Network::wakeOnCollision(int link)
{
    Link &l = links_[static_cast<std::size_t>(link)];
    if (!l.armed || l.waking || l.freeAt != l.txWhen ||
        l.returns.empty() || l.returns.back().when < l.txWhen)
        return;
    for (std::size_t i = 0; i < l.returns.size(); ++i) {
        const Return &r = l.returns[i];
        if (r.when < l.txWhen)
            continue;
        if (r.when == l.txWhen && r.seq < l.txSeq)
            wake(link, r);
        return;
    }
}

/** Try to transmit one flit on @p link; re-arms itself as needed. */
void
Network::pump(int link)
{
    Link &l = links_[static_cast<std::size_t>(link)];
    if (l.queued == 0)
        return;
    Tick now = eq_.now();
    if (l.freeAt > now) {
        arm(link, l.freeAt);
        return;
    }
    creditReturns(l, eq_.currentSeq());
    if (l.credits == 0) {
        // Backpressured. Unarmed, nothing pumps this link again until
        // a credit lands: the first pending return gets an event (with
        // none pending, the next one issued does).
        ++creditStalls_;
        if (!l.armed && !l.waking && !l.returns.empty())
            wake(link, l.returns.front());
        return;
    }
    // Round-robin arbitration across the input ports.
    const std::size_t ports = l.q.size();
    std::size_t p = static_cast<std::size_t>(l.rr);
    while (l.q[p].empty())
        p = p + 1 == ports ? 0 : p + 1;
    l.rr = p + 1 == ports ? 0 : static_cast<int>(p + 1);
    Run &head = l.q[p].front();
    const int msg = head.msg;
    const int hop = head.hop;
    if (--head.count == 0)
        l.q[p].pop_front();
    --l.queued;
    // The flit leaves the upstream link's downstream buffer: its
    // credit travels back one link latency behind.
    if (l.upstream[p] >= 0)
        returnCredit(l.upstream[p]);
    --l.credits;
    const Message &m = messages_[static_cast<std::size_t>(msg)];
    if (m.chunkBytes != l.serChunk || l.rateFactor != l.serFactor) {
        l.serChunk = m.chunkBytes;
        l.serFactor = l.rateFactor;
        l.ser = transferTicks(m.chunkBytes,
                              cfg_.linkBytesPerSec / l.rateFactor);
    }
    const Tick ser = l.ser;
    // The flit lands one latency after its wire time, and its credit
    // returns one more latency later.
    if (ser > kMaxTick - now - cfg_.linkLatency - cfg_.linkLatency)
        fatal("Network: a flit on link " + std::to_string(link) +
              " would land past the end of simulated time (~106 days); "
              "the link bandwidth is too low or the latency too high "
              "for this run (raise --link-gbps or lower "
              "--link-latency-us)");
    l.freeAt = now + ser;
    l.busyTicks += ser;
    ++l.flits;
    eq_.schedule(
        l.freeAt + cfg_.linkLatency,
        [this, link, msg, hop]() { arriveFlit(link, msg, hop); },
        "net.rx");
    if (l.queued > 0)
        arm(link, l.freeAt);
}

void
Network::arriveFlit(int link, int msg, int hop)
{
    Message &m = messages_[static_cast<std::size_t>(msg)];
    const std::vector<int> &path = *m.path;
    if (static_cast<std::size_t>(hop) + 1 == path.size()) {
        // Ejected at the destination endpoint: the buffer slot frees
        // immediately and the credit signals back upstream.
        returnCredit(link);
        ++flitsDelivered_;
        if (++m.delivered == m.flits) {
            Callback cb = std::move(m.onDelivered);
            freeMessage(msg);
            --inFlight_;
            ++messagesDelivered_;
            if (cb)
                cb();
        }
        return;
    }
    // Forward into the next hop's input queue. The flit keeps holding
    // this link's credit until it wins that arbitration.
    int next = path[static_cast<std::size_t>(hop) + 1];
    pushFlits(next, link, msg, hop + 1, 1);
    pump(next);
}

int
Network::linkFrom(int link) const
{
    return links_[static_cast<std::size_t>(link)].from;
}

int
Network::linkTo(int link) const
{
    return links_[static_cast<std::size_t>(link)].to;
}

Tick
Network::linkBusyTicks(int link) const
{
    return links_[static_cast<std::size_t>(link)].busyTicks;
}

std::int64_t
Network::linkFlits(int link) const
{
    return links_[static_cast<std::size_t>(link)].flits;
}

std::string
Network::nodeLabel(int node) const
{
    if (node < cfg_.endpoints)
        return "ep" + std::to_string(node);
    return "sw" + std::to_string(node - cfg_.endpoints);
}

} // namespace sn40l::sim
