#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <sstream>

namespace perfbench
{

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

std::size_t
nearestRank(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    const double exact = p * static_cast<double>(n);
    // ceil with a guard against p * n landing a hair above an
    // integer through rounding (0.9 * 100 = 90.00000000000001).
    auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n - nearestRank(n, p);
}

bool
percentileSupported(std::size_t n, double p)
{
    return n > 0 && samplesBeyond(n, p) >= kMinSamplesBeyond;
}

std::map<std::string, double>
groupPercentile(const std::vector<std::string> &groups,
                const std::vector<double> &values, double p)
{
    std::map<std::string, std::vector<double>> samples;
    for (std::size_t i = 0; i < groups.size() && i < values.size(); ++i)
        samples[groups[i]].push_back(values[i]);
    std::map<std::string, double> out;
    for (auto &[group, v] : samples)
        out[group] = percentile(std::move(v), p);
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
sum(const std::vector<double> &values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
SplitMix::below(std::uint64_t bound)
{
    return next() % bound;
}

Schedule::Schedule(std::vector<Share> shares, std::uint64_t seed,
                   int tenants, double zipf)
    : shares_(std::move(shares)), rng_(seed)
{
    for (const Share &share : shares_)
        roundSize_ += share.count;
    double total = 0;
    for (int t = 0; t < tenants; ++t) {
        total += 1.0 / std::pow(static_cast<double>(t + 1), zipf);
        tenantCdf_.push_back(total);
    }
    for (double &c : tenantCdf_)
        c /= total;
}

std::vector<Request>
Schedule::nextRound()
{
    std::vector<Request> round;
    round.reserve(static_cast<std::size_t>(roundSize_));
    for (const Share &share : shares_)
        for (int i = 0; i < share.count; ++i)
            round.push_back(Request{share.kernel, 0});
    // Fisher-Yates with the schedule's own generator.
    for (std::size_t i = round.size(); i > 1; --i)
        std::swap(round[i - 1], round[rng_.below(i)]);
    for (Request &request : round) {
        const double draw = rng_.uniform();
        const auto it = std::upper_bound(tenantCdf_.begin(),
                                         tenantCdf_.end(), draw);
        request.tenant = static_cast<int>(std::min<std::ptrdiff_t>(
            it - tenantCdf_.begin(),
            static_cast<std::ptrdiff_t>(tenantCdf_.size()) - 1));
    }
    return round;
}

int
Tracer::open(const std::string &name, long request)
{
    const int parent = openStack_.empty() ? -1 : openStack_.back();
    const double now = wallSeconds();
    const int id = add(name, now, now, parent, request);
    openStack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = wallSeconds();
    // Spans close innermost first (SpanScope guarantees it).
    if (!openStack_.empty() && openStack_.back() == id)
        openStack_.pop_back();
}

int
Tracer::add(const std::string &name, double start, double end,
            int parent, long request)
{
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, start, end, parent, request});
    children_.emplace_back();
    if (parent >= 0)
        children_[static_cast<std::size_t>(parent)].push_back(id);
    return id;
}

double
Tracer::selfSeconds(int id) const
{
    const Span &span = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<double, double>> covered;
    for (int child : children_[static_cast<std::size_t>(id)]) {
        const Span &c = spans_[static_cast<std::size_t>(child)];
        const double lo = std::max(span.start, c.start);
        const double hi = std::min(span.end, c.end);
        if (hi > lo)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double inside = 0;
    double reach = span.start;
    for (const auto &[lo, hi] : covered) {
        const double from = std::max(lo, reach);
        if (hi > from)
            inside += hi - from;
        reach = std::max(reach, hi);
    }
    return span.seconds() - inside;
}

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    const double origin = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"traceEvents\":[";
    out << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << (s.start - origin) * 1e6
            << ",\"dur\":" << s.seconds() * 1e6
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
}

std::vector<std::pair<std::string, double>>
parsePassTimings(const std::string &note)
{
    std::vector<std::pair<std::string, double>> out;
    std::istringstream in(note);
    std::string entry;
    while (std::getline(in, entry, ',')) {
        std::istringstream fields(entry);
        std::string pass;
        std::string amount;
        if (!(fields >> pass >> amount))
            continue;
        if (amount.size() < 3 ||
            amount.compare(amount.size() - 2, 2, "us") != 0)
            continue;
        const std::string digits = amount.substr(0, amount.size() - 2);
        if (digits.find_first_not_of("0123456789") !=
            std::string::npos)
            continue;
        out.emplace_back(pass, std::stod(digits) * 1e-6);
    }
    return out;
}

} // namespace perfbench
