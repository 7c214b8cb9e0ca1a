#include "mem/scratchpad.h"

#include <algorithm>

#include "sim/logging.h"

namespace marionette
{

Scratchpad::Scratchpad(int bytes, int banks, int ports_per_bank)
    : data_(static_cast<std::size_t>(bytes / 4), 0),
      banks_(banks),
      portsPerBank_(ports_per_bank),
      portsUsed_(static_cast<std::size_t>(banks), 0),
      stats_("scratchpad"),
      statAccesses_(stats_.stat("accesses")),
      statBankConflicts_(stats_.stat("bank_conflicts"))
{
    MARIONETTE_ASSERT(bytes > 0 && bytes % 4 == 0,
                      "scratchpad bytes %d must be a positive "
                      "multiple of 4", bytes);
    MARIONETTE_ASSERT(banks > 0, "bank count must be positive");
    MARIONETTE_ASSERT(ports_per_bank > 0,
                      "ports per bank must be positive");
}

int
Scratchpad::bankOf(Word addr) const
{
    return static_cast<int>(static_cast<UWord>(addr) %
                            static_cast<UWord>(banks_));
}

void
Scratchpad::beginCycle()
{
    if (!portsDirty_)
        return;
    std::fill(portsUsed_.begin(), portsUsed_.end(), 0);
    portsDirty_ = false;
}

bool
Scratchpad::tryAccess(Word addr)
{
    int bank = bankOf(addr);
    if (portsUsed_[static_cast<std::size_t>(bank)] >=
        portsPerBank_) {
        statBankConflicts_.inc();
        return false;
    }
    ++portsUsed_[static_cast<std::size_t>(bank)];
    portsDirty_ = true;
    statAccesses_.inc();
    return true;
}

Word
Scratchpad::read(Word addr) const
{
    MARIONETTE_ASSERT(addr >= 0 && addr < numWords(),
                      "scratchpad read of word %d out of %d", addr,
                      numWords());
    return data_[static_cast<std::size_t>(addr)];
}

void
Scratchpad::write(Word addr, Word value)
{
    MARIONETTE_ASSERT(addr >= 0 && addr < numWords(),
                      "scratchpad write of word %d out of %d", addr,
                      numWords());
    data_[static_cast<std::size_t>(addr)] = value;
}

void
Scratchpad::load(Word base, const std::vector<Word> &words)
{
    for (std::size_t i = 0; i < words.size(); ++i)
        write(base + static_cast<Word>(i), words[i]);
}

void
Scratchpad::fill(Word base, int count, Word value)
{
    MARIONETTE_ASSERT(base >= 0 && count >= 0 &&
                          count <= numWords() - base,
                      "scratchpad fill of %d words at %d out of %d",
                      count, base, numWords());
    std::fill_n(data_.begin() + base, count, value);
}

Scratchpad::Image
Scratchpad::image() const
{
    Image image;
    auto nonzero = [](Word w) { return w != 0; };
    for (auto it = std::find_if(data_.begin(), data_.end(), nonzero);
         it != data_.end();
         it = std::find_if(it, data_.end(), nonzero)) {
        auto end = std::find(it, data_.end(), 0);
        image.runs.push_back({static_cast<Word>(it - data_.begin()),
                              static_cast<int>(end - it)});
        image.words.insert(image.words.end(), it, end);
        it = end;
    }
    return image;
}

void
Scratchpad::restoreState(const Image &image, const StatGroupState &stats)
{
    fill(0, numWords(), 0);
    auto word = image.words.begin();
    for (const Image::Run &run : image.runs) {
        MARIONETTE_ASSERT(run.start >= 0 && run.count >= 0 &&
                              run.count <= numWords() - run.start &&
                              run.count <= image.words.end() - word,
                          "snapshot scratchpad run of %d words at %d "
                          "out of %d", run.count, run.start,
                          numWords());
        std::copy_n(word, run.count, data_.begin() + run.start);
        word += run.count;
    }
    stats_.restoreState(stats);
}

std::vector<Word>
Scratchpad::dump(Word base, int count) const
{
    std::vector<Word> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        out.push_back(read(base + i));
    return out;
}

} // namespace marionette
