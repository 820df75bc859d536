/**
 * @file
 * Event-driven link/credit interconnect on sim::EventQueue.
 *
 * A Network is a directed graph of unidirectional links between nodes
 * (terminal endpoints plus internal switches, depending on topology).
 * Messages are serialized into flits; each flit
 *
 *   - waits in a per-input-port FIFO at its next link's transmitter,
 *   - wins the output port through round-robin arbitration across the
 *     input ports (VC-style: one queue per upstream link, so two
 *     streams merging at a switch interleave fairly instead of one
 *     draining first),
 *   - consumes one credit of the link (a slot in the downstream input
 *     buffer), occupies the wire for its serialization time, and lands
 *     after the link latency,
 *   - returns the credit one link latency after it leaves the
 *     downstream buffer (ejection at an endpoint, or winning the next
 *     hop's arbitration at a switch).
 *
 * A transmitter that has flits queued but no credits stalls (counted);
 * nothing is ever dropped. Because a held credit is a held buffer
 * slot, a congested downstream link backpressures through shared
 * upstream links — the head-of-line coupling that makes a single
 * degraded link hurt every flow behind it, which is exactly what the
 * topology-aware dispatch ablation measures.
 *
 * Events: a flit costs a transmit event (net.tx, when the wire is
 * busy) and a landing event per hop (net.rx), about three on a
 * two-hop star. Credit returns are lazy. A return is a pending entry
 * in its link's FIFO, keyed by the (tick, seq) an event scheduled at
 * that point would have had: the seq is reserved from the EventQueue
 * there, so the run's order is unchanged. pump() credits every entry
 * whose key is below the executing event's. A return only matters
 * when it finds its link starved, and by the pump invariant
 *
 *   queued > 0 && !armed  =>  credits == 0  (starved)
 *
 * a link with flits queued and no transmit armed is starved. So a
 * return becomes a real event (net.credit, at its reserved key) in
 * two cases only: it is the first return after a stall left the link
 * starved, or it lands on the armed transmit's own tick ahead of it
 * while the wire is free by then (it, not the transmit, sends the
 * next flit). Every other return would run a pump() that does
 * nothing. A drained queue's clock still lands on the last return
 * (EventQueue::reserve()).
 *
 * Input ports hold run-length (message, hop, count) entries, so a
 * message enters its source port as one entry; serialization ticks
 * are memoized per link on (flit size, stretch factor).
 *
 * Topologies: star (every endpoint hangs off one central switch),
 * 2-D mesh / torus of combined endpoint+router cells with
 * dimension-order (XY) routing, and a two-level fat-tree (endpoint ->
 * leaf -> spine) whose spine choice is a deterministic hash of the
 * leaf pair. All routing is computed once per (src, dst) pair and
 * cached, so routes — and therefore results — are a pure function of
 * the configuration.
 *
 * Determinism: all state lives behind one EventQueue; ties resolve in
 * FIFO schedule order and the round-robin cursors advance only inside
 * events, so a run is bit-reproducible for a fixed config regardless
 * of wall-clock interleaving outside the queue.
 */

#ifndef SN40L_SIM_NETWORK_H
#define SN40L_SIM_NETWORK_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/ticks.h"

namespace sn40l::sim {

enum class Topology {
    Star,    ///< endpoints <-> one central switch
    Mesh2D,  ///< grid of endpoint+router cells, XY routing
    Torus2D, ///< mesh with wraparound links, shortest-direction XY
    FatTree, ///< endpoints -> leaf switches -> spine switches
};

const char *topologyName(Topology topology);
Topology topologyFromName(const std::string &name);

struct NetworkConfig
{
    Topology topology = Topology::Star;

    /** Terminal nodes (message sources/sinks), ids 0..endpoints-1. */
    int endpoints = 1;

    /** Per-link bandwidth; each flit occupies its link for
     *  chunkBytes / linkBytesPerSec (>= 1 tick). */
    double linkBytesPerSec = 25e9;

    /** Per-hop propagation latency, and the credit-return delay. */
    Tick linkLatency = fromUs(2.0);

    /** Downstream input-buffer depth per link == its credit count. */
    int bufferFlits = 64;

    /** Serialization quantum: messages split into ceil(bytes/flit)
     *  flits, capped by maxFlitsPerMessage (large payloads chunk
     *  coarser so a multi-GB DMA does not become millions of
     *  events). */
    double flitBytes = 4096.0;
    int maxFlitsPerMessage = 256;

    /** Mesh/torus width; 0 derives a near-square grid. */
    int meshCols = 0;

    /** Fat-tree shape: endpoints per leaf switch, spine count. */
    int fatTreeRadix = 4;
    int fatTreeSpines = 2;
};

/** FatalError on a non-positive or contradictory configuration. */
void validateNetworkConfig(const NetworkConfig &cfg);

class Network
{
  public:
    using Callback = std::function<void()>;

    Network(EventQueue &eq, const NetworkConfig &cfg);

    /**
     * Send @p bytes from endpoint @p src to endpoint @p dst;
     * @p on_delivered fires (inside the event that ejects the last
     * flit) when the whole message has landed. src == dst delivers at
     * the current tick without touching any link.
     */
    void send(int src, int dst, double bytes, Callback on_delivered);

    /** Links along the cached route src -> dst (size == hop count). */
    const std::vector<int> &route(int src, int dst);

    /**
     * Congestion estimate of the route src -> dst: per link, the
     * queued flits (plus 1 mid-serialization) scaled by the link's
     * serialization stretch factor, plus the stretch itself — so a
     * degraded link advertises its slowness even when idle. Reading
     * it never mutates state visible to the simulation, so a
     * dispatch policy may poll it between events.
     */
    double pathCongestion(int src, int dst);

    /**
     * Stretch the serialization time of every link adjacent to
     * endpoint @p endpoint by @p factor >= 1 (1.0 heals). On mesh /
     * torus the endpoint is its router, so through-traffic crossing
     * the cell degrades too — a degraded NIC hurts its neighbourhood.
     */
    void setEndpointLinkFactor(int endpoint, double factor);

    // ---- observability -------------------------------------------

    int endpointCount() const { return cfg_.endpoints; }
    std::int64_t messagesSent() const { return messagesSent_; }
    std::int64_t messagesDelivered() const { return messagesDelivered_; }
    std::int64_t messagesInFlight() const { return inFlight_; }
    /** Flits ejected at their destination endpoint. */
    std::int64_t flitsDelivered() const { return flitsDelivered_; }
    /** Transmit attempts that found flits queued but zero credits. */
    std::int64_t creditStalls() const { return creditStalls_; }

    int linkCount() const { return static_cast<int>(links_.size()); }
    int linkFrom(int link) const;
    int linkTo(int link) const;
    /** Cumulative ticks the link spent serializing flits. */
    Tick linkBusyTicks(int link) const;
    std::int64_t linkFlits(int link) const;
    /** "ep3" for an endpoint, "sw1" for an internal switch. */
    std::string nodeLabel(int node) const;

  private:
    /** FIFO on a growable power-of-two ring (no per-push allocation
     *  once it has grown to its working set). */
    template <typename T>
    class Fifo
    {
      public:
        bool empty() const { return size_ == 0; }
        std::size_t size() const { return size_; }
        T &front() { return buf_[head_]; }
        T &back() { return buf_[(head_ + size_ - 1) & (buf_.size() - 1)]; }
        /** @p i-th element from the front. */
        const T &operator[](std::size_t i) const
        {
            return buf_[(head_ + i) & (buf_.size() - 1)];
        }
        void
        push_back(const T &v)
        {
            if (size_ == buf_.size())
                grow();
            buf_[(head_ + size_) & (buf_.size() - 1)] = v;
            ++size_;
        }
        void
        pop_front()
        {
            head_ = (head_ + 1) & (buf_.size() - 1);
            --size_;
        }

      private:
        void
        grow()
        {
            std::vector<T> next(buf_.empty() ? 4 : 2 * buf_.size());
            for (std::size_t i = 0; i < size_; ++i)
                next[i] = (*this)[i];
            buf_.swap(next);
            head_ = 0;
        }
        std::vector<T> buf_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    /** @p count consecutive flits of one message at one hop. */
    struct Run
    {
        int msg;
        int hop; ///< index into the message's route
        int count;
    };

    /** A credit on its way back: the event key it would land at. */
    struct Return
    {
        Tick when;
        std::uint64_t seq;
    };

    struct Link
    {
        int from;
        int to;
        int inSlot = 0; ///< index among the links into `to`
        double rateFactor = 1.0; ///< >= 1 stretches serialization
        Tick freeAt = 0;
        int credits;
        bool armed = false;  ///< a net.tx event is scheduled ...
        Tick txWhen = 0;     ///< ... at this key
        std::uint64_t txSeq = 0;
        bool waking = false; ///< a net.credit event is scheduled
        int rr = 0;          ///< round-robin cursor over input ports
        int queued = 0;      ///< flits across all input ports
        /** Feeding link's inSlot (last: local injection) -> port,
         *  -1 until that link first pushes. */
        std::vector<int> portOf;
        std::vector<int> upstream; ///< port -> feeding link (-1 local)
        std::vector<Fifo<Run>> q;  ///< per-port FIFO
        Fifo<Return> returns;      ///< not yet credited, in key order
        /** Serialization ticks of the last flit and what they were
         *  computed from. */
        double serChunk = -1.0;
        double serFactor = 0.0;
        Tick ser = 0;
        // stats
        std::int64_t flits = 0;
        Tick busyTicks = 0;
    };

    struct Message
    {
        const std::vector<int> *path = nullptr;
        double chunkBytes = 0.0;
        int flits = 0;
        int delivered = 0;
        Callback onDelivered;
    };

    int addLink(int from, int to);
    void buildStar();
    void buildGrid(bool wrap);
    void buildFatTree();
    void buildPorts();
    std::vector<int> computeRoute(int src, int dst) const;
    std::vector<int> gridRoute(int src, int dst, bool wrap) const;
    void pushFlits(int link, int upstream_link, int msg, int hop,
                   int count);
    void pump(int link);
    void arm(int link, Tick when);
    void returnCredit(int link);
    void creditReturns(Link &l, std::uint64_t below_seq);
    void wake(int link, Return r);
    void wakeOnCollision(int link);
    void arriveFlit(int link, int msg, int hop);
    int allocMessage();
    void freeMessage(int msg);

    EventQueue &eq_;
    NetworkConfig cfg_;
    int numNodes_ = 0;    ///< endpoints + switches
    int meshCols_ = 0;    ///< resolved grid width (mesh/torus)
    int meshRows_ = 0;
    std::vector<Link> links_;
    std::map<std::pair<int, int>, int> linkIndex_; ///< (from,to) -> id
    std::map<std::pair<int, int>, std::vector<int>> routes_;
    std::vector<Message> messages_; ///< slab, recycled via freeIds_
    std::vector<int> freeIds_;
    std::int64_t messagesSent_ = 0;
    std::int64_t messagesDelivered_ = 0;
    std::int64_t inFlight_ = 0;
    std::int64_t flitsDelivered_ = 0;
    std::int64_t creditStalls_ = 0;
};

} // namespace sn40l::sim

#endif // SN40L_SIM_NETWORK_H
