#include "mem/scratchpad.h"

#include <algorithm>

#include "sim/logging.h"

namespace marionette
{

namespace
{

std::size_t
pageOf(Word addr)
{
    return static_cast<UWord>(addr) / Scratchpad::pageWords;
}

std::size_t
offsetOf(Word addr)
{
    return static_cast<UWord>(addr) % Scratchpad::pageWords;
}

/** Split words [base, base + count) at page boundaries: call
 *  @p f(page, offset, n) per piece, in address order. */
template <typename F>
void
forEachPiece(Word base, int count, F &&f)
{
    for (Word addr = base, end = base + count; addr < end;) {
        const int offset = static_cast<int>(offsetOf(addr));
        const int n = std::min(end - addr, Scratchpad::pageWords - offset);
        f(pageOf(addr), offset, n);
        addr += n;
    }
}

} // namespace

Scratchpad::Scratchpad(int bytes, int banks, int ports_per_bank)
    : numWords_(bytes / 4),
      pages_(static_cast<std::size_t>(numWords_ + pageWords - 1) /
             pageWords),
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
Scratchpad::heldWords() const
{
    std::size_t held = 0;
    for (const std::vector<Word> &page : pages_)
        held += page.size();
    return static_cast<int>(held);
}

std::vector<Word> &
Scratchpad::hold(std::size_t p)
{
    std::vector<Word> &page = pages_[p];
    if (page.empty()) {
        // The last page stops at the capacity.
        const int first = static_cast<int>(p) * pageWords;
        page.assign(static_cast<std::size_t>(
                        std::min(pageWords, numWords_ - first)),
                    0);
    }
    return page;
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
    const std::vector<Word> &page = pages_[pageOf(addr)];
    return page.empty() ? 0 : page[offsetOf(addr)];
}

void
Scratchpad::write(Word addr, Word value)
{
    MARIONETTE_ASSERT(addr >= 0 && addr < numWords(),
                      "scratchpad write of word %d out of %d", addr,
                      numWords());
    std::vector<Word> &page = pages_[pageOf(addr)];
    if (page.empty()) {
        if (value == 0)
            return; // an unheld page reads 0 already
        hold(pageOf(addr));
    }
    page[offsetOf(addr)] = value;
}

void
Scratchpad::store(Word base, const Word *words, int count)
{
    forEachPiece(base, count, [&](std::size_t p, int offset, int n) {
        if (!pages_[p].empty() ||
            std::any_of(words, words + n, [](Word w) { return w != 0; }))
            std::copy_n(words, n, hold(p).begin() + offset);
        words += n;
    });
}

void
Scratchpad::load(Word base, const std::vector<Word> &words)
{
    const int count = static_cast<int>(words.size());
    MARIONETTE_ASSERT(base >= 0 && count <= numWords() - base,
                      "scratchpad load of %d words at %d out of %d",
                      count, base, numWords());
    store(base, words.data(), count);
}

void
Scratchpad::fill(Word base, int count, Word value)
{
    MARIONETTE_ASSERT(base >= 0 && count >= 0 &&
                          count <= numWords() - base,
                      "scratchpad fill of %d words at %d out of %d",
                      count, base, numWords());
    forEachPiece(base, count, [&](std::size_t p, int offset, int n) {
        if (value != 0 || !pages_[p].empty())
            std::fill_n(hold(p).begin() + offset, n, value);
    });
}

Scratchpad::Image
Scratchpad::image() const
{
    Image image;
    auto nonzero = [](Word w) { return w != 0; };
    // One past the last run's final word: a run that starts there
    // (on the next page) extends it.
    Word run_end = -1;
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        const std::vector<Word> &page = pages_[p];
        const Word base = static_cast<Word>(p) * pageWords;
        for (auto it = std::find_if(page.begin(), page.end(), nonzero);
             it != page.end();
             it = std::find_if(it, page.end(), nonzero)) {
            auto end = std::find(it, page.end(), 0);
            const Word start =
                base + static_cast<Word>(it - page.begin());
            if (start == run_end)
                image.runs.back().count += static_cast<int>(end - it);
            else
                image.runs.push_back(
                    {start, static_cast<int>(end - it)});
            run_end = base + static_cast<Word>(end - page.begin());
            image.words.insert(image.words.end(), it, end);
            it = end;
        }
    }
    return image;
}

void
Scratchpad::restoreState(const Image &image, const StatGroupState &stats)
{
    for (std::vector<Word> &page : pages_)
        std::fill(page.begin(), page.end(), 0);
    std::size_t used = 0;
    for (const Image::Run &run : image.runs) {
        MARIONETTE_ASSERT(run.start >= 0 && run.count >= 0 &&
                              run.count <= numWords() - run.start &&
                              static_cast<std::size_t>(run.count) <=
                                  image.words.size() - used,
                          "snapshot scratchpad run of %d words at %d "
                          "out of %d", run.count, run.start,
                          numWords());
        store(run.start, image.words.data() + used, run.count);
        used += static_cast<std::size_t>(run.count);
    }
    stats_.restoreState(stats);
}

std::vector<Word>
Scratchpad::dump(Word base, int count) const
{
    MARIONETTE_ASSERT(base >= 0 && count >= 0 &&
                          count <= numWords() - base,
                      "scratchpad dump of %d words at %d out of %d",
                      count, base, numWords());
    std::vector<Word> out(static_cast<std::size_t>(count), 0);
    auto next = out.begin();
    forEachPiece(base, count, [&](std::size_t p, int offset, int n) {
        if (!pages_[p].empty())
            std::copy_n(pages_[p].begin() + offset, n, next);
        next += n;
    });
    return out;
}

} // namespace marionette
