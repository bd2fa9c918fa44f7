#include "sim/event_queue.h"

#include <algorithm>

#include "obs/tracer.h"
#include "util/logging.h"

namespace pad::sim {

EventQueue::EventQueue()
{
    heap_.reserve(kBlockSize);
    byId_.reserve(kBlockSize);
}

void
EventQueue::addBlock()
{
    blocks_.push_back(std::make_unique<Entry[]>(kBlockSize));
    Entry *block = blocks_.back().get();
    freeList_.reserve(freeList_.size() + kBlockSize);
    for (std::size_t i = kBlockSize; i > 0; --i)
        freeList_.push_back(&block[i - 1]);
}

EventQueue::Entry *
EventQueue::allocEntry()
{
    if (freeList_.empty())
        addBlock();
    Entry *entry = freeList_.back();
    freeList_.pop_back();
    return entry;
}

void
EventQueue::releaseEntry(Entry *entry)
{
    entry->cb = nullptr; // free the callback's captures eagerly
    freeList_.push_back(entry);
}

void
EventQueue::reserve(std::size_t events)
{
    heap_.reserve(events);
    byId_.reserve(events);
    while (blocks_.size() * kBlockSize < events)
        addBlock();
}

void
EventQueue::setMaxLiveEvents(std::size_t bound)
{
    PAD_ASSERT(bound >= live_,
               "live-event bound below current live count");
    maxLive_ = bound;
}

EventHandle
EventQueue::schedule(Tick when, Callback cb, EventPriority priority)
{
    PAD_ASSERT(when >= now_, "event scheduled in the past");
    PAD_ASSERT(live_ < maxLive_,
               "event queue exceeded its live-event bound ({}); "
               "runaway rescheduling? see setMaxLiveEvents()",
               maxLive_);
    Entry *entry = allocEntry();
    entry->when = when;
    entry->priority = static_cast<int>(priority);
    entry->seq = nextSeq_++;
    entry->id = nextId_++;
    entry->cb = std::move(cb);
    entry->cancelled = false;
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), EntryCompare{});
    byId_.emplace(entry->id, entry);
    ++live_;
    return EventHandle(entry->id);
}

void
EventQueue::cancel(EventHandle handle)
{
    if (!handle.valid())
        return;
    auto it = byId_.find(handle.id_);
    if (it == byId_.end())
        return;
    if (!it->second->cancelled) {
        it->second->cancelled = true;
        --live_;
    }
    // The entry stays in the heap and is reclaimed lazily when popped.
    byId_.erase(it);
}

EventQueue::Entry *
EventQueue::popNextLive()
{
    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), EntryCompare{});
        Entry *top = heap_.back();
        heap_.pop_back();
        if (top->cancelled) {
            releaseEntry(top);
            continue;
        }
        byId_.erase(top->id);
        --live_;
        return top;
    }
    return nullptr;
}

Tick
EventQueue::nextEventTick() const
{
    // The heap top may be a lazily-cancelled entry; accept the cheap
    // answer when it is live and fall back to scanning the live map
    // otherwise.
    if (heap_.empty() || live_ == 0)
        return kTickNever;
    const Entry *top = heap_.front();
    if (!top->cancelled)
        return top->when;
    Tick best = kTickNever;
    for (const auto &[id, entry] : byId_) {
        (void)id;
        if (best == kTickNever || entry->when < best)
            best = entry->when;
    }
    return best;
}

std::size_t
EventQueue::runUntil(Tick until)
{
    std::size_t ran = 0;
    while (true) {
        const Tick next = nextEventTick();
        if (next == kTickNever || next > until)
            break;
        step();
        ++ran;
    }
    if (now_ < until)
        now_ = until;
    return ran;
}

bool
EventQueue::step()
{
    Entry *entry = popNextLive();
    if (!entry)
        return false;
    PAD_ASSERT(entry->when >= now_);
    now_ = entry->when;
    ++executed_;
    if (obs::traceEnabled()) {
        obs::setTraceClock(now_);
        obs::emit("sim", "sim.dispatch",
                  {obs::TraceField::integer(
                       "seq", static_cast<std::int64_t>(entry->seq)),
                   obs::TraceField::integer(
                       "priority",
                       static_cast<std::int64_t>(entry->priority))});
    }
    Callback cb = std::move(entry->cb);
    releaseEntry(entry);
    cb();
    return true;
}

} // namespace pad::sim
