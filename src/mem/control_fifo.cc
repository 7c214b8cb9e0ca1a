#include "mem/control_fifo.h"

#include "sim/logging.h"

namespace marionette
{

ControlFifo::ControlFifo(int depth, const std::string &name)
    : entries_(depth),
      stats_(name),
      statPushes_(stats_.stat("pushes")),
      statPops_(stats_.stat("pops")),
      statPushBlocked_(stats_.stat("push_blocked")),
      statMaxOccupancy_(stats_.stat("max_occupancy"))
{
}

bool
ControlFifo::push(Word value)
{
    if (full()) {
        statPushBlocked_.inc();
        return false;
    }
    entries_.push(value);
    statPushes_.inc();
    statMaxOccupancy_.max(
        static_cast<std::uint64_t>(occupancy()));
    return true;
}

Word
ControlFifo::pop()
{
    MARIONETTE_ASSERT(!empty(), "pop from empty control FIFO");
    statPops_.inc();
    return entries_.pop();
}

Word
ControlFifo::front() const
{
    MARIONETTE_ASSERT(!empty(), "front of empty control FIFO");
    return entries_.front();
}

void
ControlFifo::clear()
{
    entries_.clear();
}

} // namespace marionette
