#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

#include "util/errors.hpp"

namespace rpkic::obs {

namespace {

/// Deterministic number rendering: integers exactly, everything else with
/// enough digits to round-trip. Identical inputs always render the same
/// bytes (the metric-dump determinism property depends on this).
std::string formatValue(double v) {
    if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
    if (std::isnan(v)) return "NaN";
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    // Shortest representation that round-trips: "1e-06" beats
    // "9.9999999999999995e-07" for human eyes and is just as deterministic.
    char buf[64];
    for (int precision = 6; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v) break;
    }
    return buf;
}

Labels canonicalize(Labels labels) {
    std::sort(labels.begin(), labels.end());
    return labels;
}

std::string labelKey(const Labels& labels) {
    return renderLabels(labels);
}

/// Merges the series labels with the `le` bucket label (appended last, the
/// conventional Prometheus layout).
std::string bucketLabels(const std::string& seriesKey, const std::string& le) {
    std::string inner = seriesKey.empty()
                            ? ""
                            : seriesKey.substr(1, seriesKey.size() - 2) + ",";
    return "{" + inner + "le=\"" + le + "\"}";
}

}  // namespace

std::string jsonEscape(std::string_view s) {
    std::string out;
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string formatMetricValue(double v) {
    return formatValue(v);
}

std::string_view toString(MetricKind kind) {
    switch (kind) {
        case MetricKind::Counter: return "counter";
        case MetricKind::Gauge: return "gauge";
        case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

bool isValidMetricName(const std::string& name) {
    if (name.empty()) return false;
    auto head = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
    };
    auto tail = [&](char c) { return head(c) || std::isdigit(static_cast<unsigned char>(c)); };
    if (!head(name[0])) return false;
    return std::all_of(name.begin() + 1, name.end(), tail);
}

bool isValidLabelName(const std::string& name) {
    if (name.empty()) return false;
    auto head = [](char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; };
    auto tail = [&](char c) { return head(c) || std::isdigit(static_cast<unsigned char>(c)); };
    if (!head(name[0])) return false;
    return std::all_of(name.begin() + 1, name.end(), tail);
}

std::string escapeLabelValue(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

std::string renderLabels(const Labels& labels) {
    if (labels.empty()) return "";
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) out += ",";
        first = false;
        out += k + "=\"" + escapeLabelValue(v) + "\"";
    }
    out += "}";
    return out;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(HistogramSpec spec) : spec_(spec) {
    if (spec_.bucketCount < 1) spec_.bucketCount = 1;
    if (spec_.growth <= 1.0) spec_.growth = 2.0;
    if (spec_.firstBound <= 0.0) spec_.firstBound = 1e-6;
    bounds_.reserve(static_cast<std::size_t>(spec_.bucketCount));
    double b = spec_.firstBound;
    for (int i = 0; i < spec_.bucketCount; ++i) {
        bounds_.push_back(b);
        b *= spec_.growth;
    }
    counts_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::sum() const {
    return sum_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

Registry::Family& Registry::familyFor(const std::string& name, const std::string& help,
                                      Kind kind, const HistogramSpec* spec) {
    if (!isValidMetricName(name)) {
        throw UsageError("invalid metric name: " + name);
    }
    if (kind == Kind::Counter && (name.size() < 7 || name.substr(name.size() - 6) != "_total")) {
        throw UsageError("counter name must end in _total: " + name);
    }
    auto [it, inserted] = families_.try_emplace(name);
    Family& fam = it->second;
    if (inserted) {
        fam.kind = kind;
        fam.help = help;
        if (spec != nullptr) fam.spec = *spec;
    } else if (fam.kind != kind) {
        throw UsageError("metric " + name + " re-registered as a different type");
    } else if (kind == Kind::Histogram && spec != nullptr && !(fam.spec == *spec)) {
        throw UsageError("histogram " + name + " re-registered with a different bucket layout");
    }
    return fam;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
    const Labels canon = canonicalize(labels);
    for (const auto& [k, v] : canon) {
        if (!isValidLabelName(k)) throw UsageError("invalid label name: " + k);
    }
    rc::LockGuard lock(mutex_);
    Family& fam = familyFor(name, help, Kind::Counter, nullptr);
    auto& slot = fam.counters[labelKey(canon)];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help, const Labels& labels) {
    const Labels canon = canonicalize(labels);
    for (const auto& [k, v] : canon) {
        if (!isValidLabelName(k)) throw UsageError("invalid label name: " + k);
    }
    rc::LockGuard lock(mutex_);
    Family& fam = familyFor(name, help, Kind::Gauge, nullptr);
    auto& slot = fam.gauges[labelKey(canon)];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               const Labels& labels, HistogramSpec spec) {
    const Labels canon = canonicalize(labels);
    for (const auto& [k, v] : canon) {
        if (!isValidLabelName(k)) throw UsageError("invalid label name: " + k);
        if (k == "le") throw UsageError("label name 'le' is reserved on histograms");
    }
    rc::LockGuard lock(mutex_);
    Family& fam = familyFor(name, help, Kind::Histogram, &spec);
    auto& slot = fam.histograms[labelKey(canon)];
    if (!slot) slot = std::make_unique<Histogram>(fam.spec);
    return *slot;
}

RegistrySnapshot Registry::snapshot() const {
    RegistrySnapshot snap;
    rc::LockGuard lock(mutex_);
    snap.families.reserve(families_.size());
    for (const auto& [name, fam] : families_) {
        FamilySnapshot f;
        f.name = name;
        f.help = fam.help;
        f.kind = fam.kind;
        switch (fam.kind) {
            case Kind::Counter:
                f.series.reserve(fam.counters.size());
                for (const auto& [key, c] : fam.counters) {
                    SeriesSnapshot s;
                    s.labels = key;
                    s.value = static_cast<double>(c->value());
                    f.series.push_back(std::move(s));
                }
                break;
            case Kind::Gauge:
                f.series.reserve(fam.gauges.size());
                for (const auto& [key, g] : fam.gauges) {
                    SeriesSnapshot s;
                    s.labels = key;
                    s.value = static_cast<double>(g->value());
                    f.series.push_back(std::move(s));
                }
                break;
            case Kind::Histogram:
                f.series.reserve(fam.histograms.size());
                for (const auto& [key, h] : fam.histograms) {
                    if (f.bounds.empty()) f.bounds = h->bounds();
                    SeriesSnapshot s;
                    s.labels = key;
                    s.buckets.reserve(h->bounds().size() + 1);
                    // Read every bucket exactly once and derive the total
                    // from those reads: a concurrent observe() either
                    // landed before its bucket read (and is counted in
                    // both the bucket and the total) or after (counted in
                    // neither) — there is no interleaving that tears
                    // +Inf away from _count.
                    std::uint64_t total = 0;
                    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
                        const std::uint64_t n = h->bucketCount(i);
                        s.buckets.push_back(n);
                        total += n;
                    }
                    s.count = total;
                    s.sum = h->sum();
                    f.series.push_back(std::move(s));
                }
                break;
        }
        snap.families.push_back(std::move(f));
    }
    return snap;
}

std::string RegistrySnapshot::renderPrometheus() const {
    std::string out;
    for (const auto& fam : families) {
        out += "# HELP " + fam.name + " " + fam.help + "\n";
        out += "# TYPE " + fam.name + " " + std::string(toString(fam.kind)) + "\n";
        switch (fam.kind) {
            case MetricKind::Counter:
            case MetricKind::Gauge:
                for (const auto& s : fam.series) {
                    out += fam.name + s.labels + " " + formatValue(s.value) + "\n";
                }
                break;
            case MetricKind::Histogram:
                for (const auto& s : fam.series) {
                    std::uint64_t cum = 0;
                    for (std::size_t i = 0; i < fam.bounds.size(); ++i) {
                        cum += s.buckets[i];
                        out += fam.name + "_bucket" +
                               bucketLabels(s.labels, formatValue(fam.bounds[i])) + " " +
                               formatValue(static_cast<double>(cum)) + "\n";
                    }
                    out += fam.name + "_bucket" + bucketLabels(s.labels, "+Inf") + " " +
                           formatValue(static_cast<double>(s.count)) + "\n";
                    out += fam.name + "_sum" + s.labels + " " + formatValue(s.sum) + "\n";
                    out += fam.name + "_count" + s.labels + " " +
                           formatValue(static_cast<double>(s.count)) + "\n";
                }
                break;
        }
    }
    return out;
}

const FamilySnapshot* RegistrySnapshot::find(const std::string& name) const {
    for (const auto& fam : families) {
        if (fam.name == name) return &fam;
    }
    return nullptr;
}

std::string Registry::renderPrometheus() const {
    return snapshot().renderPrometheus();
}

void Registry::reset() {
    rc::LockGuard lock(mutex_);
    families_.clear();
}

Registry& Registry::global() {
    static Registry instance;
    return instance;
}

// ---------------------------------------------------------------------------
// Exposition parsing + lint

namespace {

struct ParsedLine {
    enum class Kind { Blank, Help, Type, Sample } kind = Kind::Blank;
    std::string family;  // HELP/TYPE lines
    std::string text;    // TYPE value or HELP text
    PromSample sample;
};

ParsedLine parseLine(const std::string& line, int lineNo) {
    ParsedLine out;
    if (line.empty()) return out;
    if (line[0] == '#') {
        std::istringstream is(line);
        std::string hash, keyword, family;
        is >> hash >> keyword >> family;
        if (keyword == "HELP" || keyword == "TYPE") {
            out.kind = keyword == "HELP" ? ParsedLine::Kind::Help : ParsedLine::Kind::Type;
            out.family = family;
            std::string rest;
            std::getline(is, rest);
            if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
            out.text = rest;
        }
        return out;  // other comments are ignored
    }

    // name[{labels}] value [timestamp]
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0) throw ParseError("line " + std::to_string(lineNo) + ": missing metric name");
    out.kind = ParsedLine::Kind::Sample;
    out.sample.name = line.substr(0, i);

    if (i < line.size() && line[i] == '{') {
        const std::size_t start = ++i;
        bool inQuotes = false;
        while (i < line.size()) {
            const char c = line[i];
            if (inQuotes) {
                if (c == '\\') {
                    if (i + 1 >= line.size()) {
                        throw ParseError("line " + std::to_string(lineNo) +
                                         ": dangling escape in label value");
                    }
                    const char e = line[i + 1];
                    if (e != '\\' && e != '"' && e != 'n') {
                        throw ParseError("line " + std::to_string(lineNo) +
                                         ": invalid escape \\" + std::string(1, e));
                    }
                    i += 2;
                    continue;
                }
                if (c == '"') inQuotes = false;
                ++i;
                continue;
            }
            if (c == '"') {
                inQuotes = true;
                ++i;
                continue;
            }
            if (c == '}') break;
            ++i;
        }
        if (i >= line.size() || line[i] != '}') {
            throw ParseError("line " + std::to_string(lineNo) + ": unterminated label set");
        }
        out.sample.labels = line.substr(start, i - start);
        ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
        throw ParseError("line " + std::to_string(lineNo) + ": missing value");
    }
    ++i;
    const std::string valueText = line.substr(i);
    if (valueText.empty()) {
        throw ParseError("line " + std::to_string(lineNo) + ": missing value");
    }
    if (valueText == "+Inf") {
        out.sample.value = std::numeric_limits<double>::infinity();
    } else if (valueText == "-Inf") {
        out.sample.value = -std::numeric_limits<double>::infinity();
    } else if (valueText == "NaN") {
        out.sample.value = std::numeric_limits<double>::quiet_NaN();
    } else {
        char* end = nullptr;
        out.sample.value = std::strtod(valueText.c_str(), &end);
        if (end == valueText.c_str() || (end != nullptr && *end != '\0' && *end != ' ')) {
            throw ParseError("line " + std::to_string(lineNo) + ": bad value '" + valueText +
                             "'");
        }
    }
    return out;
}

/// Splits a raw label body (text between the braces) into (name, value)
/// pairs, validating escapes. Values keep their escaped form.
std::vector<std::pair<std::string, std::string>> splitLabels(const std::string& body,
                                                             std::string* error) {
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t i = 0;
    while (i < body.size()) {
        std::size_t eq = body.find('=', i);
        if (eq == std::string::npos) {
            *error = "label pair without '='";
            return out;
        }
        const std::string name = body.substr(i, eq - i);
        if (eq + 1 >= body.size() || body[eq + 1] != '"') {
            *error = "label value not quoted";
            return out;
        }
        std::size_t j = eq + 2;
        std::string value;
        bool closed = false;
        while (j < body.size()) {
            const char c = body[j];
            if (c == '\\') {
                if (j + 1 >= body.size()) {
                    *error = "dangling escape";
                    return out;
                }
                value += body.substr(j, 2);
                j += 2;
                continue;
            }
            if (c == '"') {
                closed = true;
                ++j;
                break;
            }
            if (c == '\n') {
                *error = "raw newline in label value";
                return out;
            }
            value += c;
            ++j;
        }
        if (!closed) {
            *error = "unterminated label value";
            return out;
        }
        out.emplace_back(name, value);
        if (j < body.size()) {
            if (body[j] != ',') {
                *error = "expected ',' between labels";
                return out;
            }
            ++j;
        }
        i = j;
    }
    return out;
}

}  // namespace

std::vector<PromSample> parsePrometheus(const std::string& text) {
    std::vector<PromSample> out;
    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        const ParsedLine p = parseLine(line, lineNo);
        if (p.kind == ParsedLine::Kind::Sample) out.push_back(p.sample);
    }
    return out;
}

std::vector<std::string> lintPrometheus(const std::string& text) {
    std::vector<std::string> problems;
    std::map<std::string, std::string> types;       // family -> type
    std::map<std::string, bool> helpSeen;           // family -> true
    std::map<std::string, int> firstSampleLine;     // family -> line no
    std::set<std::string> seriesSeen;               // name + "|" + labels
    // (family, series-labels-without-le) -> ordered bucket samples
    std::map<std::string, std::vector<std::pair<double, double>>> buckets;
    std::map<std::string, double> histCount;
    std::map<std::string, bool> histSum;

    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        ParsedLine p;
        try {
            p = parseLine(line, lineNo);
        } catch (const ParseError& e) {
            problems.push_back(e.what());
            continue;
        }
        const std::string where = "line " + std::to_string(lineNo) + ": ";
        switch (p.kind) {
            case ParsedLine::Kind::Blank:
                break;
            case ParsedLine::Kind::Help:
                helpSeen[p.family] = true;
                break;
            case ParsedLine::Kind::Type: {
                if (p.text != "counter" && p.text != "gauge" && p.text != "histogram" &&
                    p.text != "summary" && p.text != "untyped") {
                    problems.push_back(where + "unknown TYPE '" + p.text + "'");
                }
                if (types.count(p.family) > 0) {
                    problems.push_back(where + "duplicate TYPE for " + p.family);
                }
                if (firstSampleLine.count(p.family) > 0) {
                    problems.push_back(where + "TYPE for " + p.family +
                                       " appears after its samples");
                }
                types[p.family] = p.text;
                break;
            }
            case ParsedLine::Kind::Sample: {
                const PromSample& s = p.sample;
                if (!isValidMetricName(s.name)) {
                    problems.push_back(where + "invalid metric name '" + s.name + "'");
                }
                std::string labelError;
                auto labels = splitLabels(s.labels, &labelError);
                if (!labelError.empty()) {
                    problems.push_back(where + labelError + " in '" + s.labels + "'");
                }
                for (const auto& [k, v] : labels) {
                    if (!isValidLabelName(k)) {
                        problems.push_back(where + "invalid label name '" + k + "'");
                    }
                }
                const std::string seriesKey = s.name + "|" + s.labels;
                if (!seriesSeen.insert(seriesKey).second) {
                    problems.push_back(where + "duplicate series " + s.name + "{" + s.labels +
                                       "}");
                }

                // Resolve the family this sample belongs to.
                std::string family = s.name;
                bool isBucket = false, isSum = false, isCount = false;
                if (types.count(family) == 0) {
                    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
                        const std::size_t n = std::string(suffix).size();
                        if (s.name.size() > n &&
                            s.name.compare(s.name.size() - n, n, suffix) == 0) {
                            const std::string base = s.name.substr(0, s.name.size() - n);
                            const auto it = types.find(base);
                            if (it != types.end() &&
                                (it->second == "histogram" || it->second == "summary")) {
                                family = base;
                                isBucket = std::string(suffix) == "_bucket";
                                isSum = std::string(suffix) == "_sum";
                                isCount = std::string(suffix) == "_count";
                                break;
                            }
                        }
                    }
                }
                if (types.count(family) == 0) {
                    problems.push_back(where + "sample " + s.name + " has no TYPE line");
                    break;
                }
                if (firstSampleLine.count(family) == 0) firstSampleLine[family] = lineNo;
                if (helpSeen.count(family) == 0) {
                    problems.push_back(where + "sample " + s.name + " has no HELP line");
                    helpSeen[family] = true;  // report once
                }
                const std::string& type = types[family];
                if (type == "counter") {
                    const std::string suffix = "_total";
                    if (family.size() < suffix.size() + 1 ||
                        family.compare(family.size() - suffix.size(), suffix.size(), suffix) !=
                            0) {
                        problems.push_back(where + "counter " + family +
                                           " does not end in _total");
                    }
                    if (!(s.value >= 0.0)) {
                        problems.push_back(where + "counter " + family + " is negative or NaN");
                    }
                }
                if (type == "histogram") {
                    // Strip the le label to identify the series.
                    std::string le;
                    std::string rest;
                    for (const auto& [k, v] : labels) {
                        if (k == "le") {
                            le = v;
                        } else {
                            if (!rest.empty()) rest += ",";
                            rest += k + "=\"" + v + "\"";
                        }
                    }
                    const std::string hkey = family + "|" + rest;
                    if (isBucket) {
                        if (le.empty()) {
                            problems.push_back(where + "_bucket sample without le label");
                        } else {
                            const double leVal =
                                le == "+Inf" ? std::numeric_limits<double>::infinity()
                                             : std::strtod(le.c_str(), nullptr);
                            buckets[hkey].emplace_back(leVal, s.value);
                        }
                    } else if (isCount) {
                        histCount[hkey] = s.value;
                    } else if (isSum) {
                        histSum[hkey] = true;
                    } else {
                        problems.push_back(where + "raw sample " + s.name +
                                           " inside histogram family " + family);
                    }
                }
                break;
            }
        }
    }

    for (const auto& [family, type] : types) {
        if (firstSampleLine.count(family) == 0) {
            problems.push_back("family " + family + " has TYPE but no samples");
        }
    }
    for (const auto& [hkey, series] : buckets) {
        double prevLe = -std::numeric_limits<double>::infinity();
        double prevCount = -1.0;
        bool sawInf = false;
        for (const auto& [le, count] : series) {
            if (le <= prevLe) {
                problems.push_back("histogram " + hkey + ": le bounds not ascending");
            }
            if (count < prevCount) {
                problems.push_back("histogram " + hkey + ": bucket counts not cumulative");
            }
            if (std::isinf(le)) sawInf = true;
            prevLe = le;
            prevCount = count;
        }
        if (!sawInf) {
            problems.push_back("histogram " + hkey + ": missing +Inf bucket");
        }
        const auto countIt = histCount.find(hkey);
        if (countIt == histCount.end()) {
            problems.push_back("histogram " + hkey + ": missing _count sample");
        } else if (!series.empty() && series.back().second != countIt->second) {
            problems.push_back("histogram " + hkey + ": +Inf bucket != _count");
        }
        if (histSum.count(hkey) == 0) {
            problems.push_back("histogram " + hkey + ": missing _sum sample");
        }
    }
    return problems;
}

}  // namespace rpkic::obs
