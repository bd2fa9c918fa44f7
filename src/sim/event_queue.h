/**
 * @file
 * Discrete-event queue at the heart of the PAD simulator.
 *
 * Events are callbacks scheduled at an absolute Tick. Events at the
 * same tick execute in (priority, insertion-order) order so that the
 * simulation is fully deterministic. Scheduled events can be
 * cancelled through the EventHandle returned at scheduling time.
 */

#ifndef PAD_SIM_EVENT_QUEUE_H
#define PAD_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/types.h"

namespace pad::sim {

/** Relative ordering of events scheduled at the same tick. */
enum class EventPriority : int {
    /** Power/battery state updates happen first. */
    Physical = 0,
    /** Then control decisions (schemes, policies, attackers). */
    Control = 1,
    /** Then monitoring, metering, statistics. */
    Observe = 2,
    /** Finally bookkeeping (trace logging, checkpoints). */
    Cleanup = 3,
};

/** Opaque handle used to cancel a scheduled event. */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True when the handle refers to a scheduled event. */
    bool valid() const { return id_ != 0; }

  private:
    friend class EventQueue;
    explicit EventHandle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
};

/**
 * Priority queue of timed callbacks.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /**
     * Schedule @p cb at absolute tick @p when.
     *
     * @param when     absolute tick, must be >= now()
     * @param cb       callback invoked when the event fires
     * @param priority same-tick ordering class
     * @return a handle that can later be passed to cancel()
     */
    EventHandle schedule(Tick when, Callback cb,
                         EventPriority priority = EventPriority::Control);

    /**
     * Cancel a previously scheduled event. Cancelling an event that
     * has already fired (or an invalid handle) is a harmless no-op.
     */
    void cancel(EventHandle handle);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (scheduled, not cancelled) events. */
    std::size_t size() const { return live_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Tick of the next live event, or kTickNever when empty. */
    Tick nextEventTick() const;

    /**
     * Fire all events up to and including tick @p until, advancing
     * now(). Events scheduled by callbacks at ticks <= until also run.
     *
     * @return number of events executed
     */
    std::size_t runUntil(Tick until);

    /**
     * Fire the single next event (advancing now() to its tick).
     * @retval true an event ran; false if the queue was empty
     */
    bool step();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Pre-size the queue for @p events concurrently-live events:
     * reserves the heap vector and id map and pre-allocates enough
     * arena blocks. Purely a performance hint; the queue still grows
     * on demand (up to maxLiveEvents()).
     */
    void reserve(std::size_t events);

    /**
     * Hard bound on concurrently live events; scheduling past it is
     * a fatal error (a runaway self-rescheduling callback otherwise
     * grows the arena without bound). Default 1,048,576.
     */
    std::size_t maxLiveEvents() const { return maxLive_; }

    /** Adjust the live-event bound (must cover current live count). */
    void setMaxLiveEvents(std::size_t bound);

  private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::uint64_t id;
        Callback cb;
        bool cancelled = false;
    };

    struct EntryCompare {
        // Max-heap comparator; inverted for earliest-first popping.
        // (when, priority, seq) is a total order — seq is unique —
        // so the pop sequence is deterministic for any heap layout.
        bool
        operator()(const Entry *a, const Entry *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->priority != b->priority)
                return a->priority > b->priority;
            return a->seq > b->seq;
        }
    };

    void addBlock();
    Entry *allocEntry();
    void releaseEntry(Entry *entry);
    Entry *popNextLive();

    /** Binary heap over heap_ (std::push_heap/std::pop_heap). */
    std::vector<Entry *> heap_;
    std::unordered_map<std::uint64_t, Entry *> byId_;
    /**
     * Arena blocks and the free list of recycled entries. Entries
     * live in fixed blocks for the queue's lifetime; a released
     * entry drops its callback and returns to freeList_.
     */
    std::vector<std::unique_ptr<Entry[]>> blocks_;
    std::vector<Entry *> freeList_;
    /** Entries per arena block; also the initial heap/id-map size. */
    static constexpr std::size_t kBlockSize = 256;
    std::size_t maxLive_ = 1u << 20;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t nextId_ = 1;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0;

  public:
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
};

} // namespace pad::sim

#endif // PAD_SIM_EVENT_QUEUE_H
