/**
 * @file
 * The JSON report writer behind every checked-in artifact:
 * paper_eval's compile coverage, mapped cycles, unroll ablation and
 * fault resilience, and bench_serving's serving ladder.
 *
 * Every report opens through openReport, so each leads with the same
 * "schema_version" field, and closes through closeReport for the
 * uniform confirmation line.  Bump the version when an existing
 * field changes meaning — added fields are not a version bump.
 */

#ifndef MARIONETTE_SIM_REPORT_H
#define MARIONETTE_SIM_REPORT_H

#include <cstdio>
#include <fstream>
#include <string>

namespace marionette
{

constexpr int kReportSchemaVersion = 2;

/** Open @p path and write the opening brace and the schema_version
 *  field (@p version, for a report whose fields changed meaning on
 *  their own); false (and a message naming the @p kind of report)
 *  when the file cannot be written. */
inline bool
openReport(std::ofstream &out, const std::string &path,
           const char *kind, int version = kReportSchemaVersion)
{
    out.open(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s report '%s'\n", kind,
                     path.c_str());
        return false;
    }
    out << "{\n  \"schema_version\": " << version << ",\n";
    return true;
}

/** Write the closing brace and print the confirmation line. */
inline void
closeReport(std::ofstream &out, const std::string &path,
            const char *kind)
{
    out << "}\n";
    std::printf("wrote %s report: %s\n", kind, path.c_str());
}

/** Escape a string for use inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out;
}

} // namespace marionette

#endif // MARIONETTE_SIM_REPORT_H
