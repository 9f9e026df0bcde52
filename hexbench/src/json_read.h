// Reads the server's W3C SPARQL JSON results back into rows of term keys,
// with a small JSON parser of the benchmark's own (the check must not use
// the program's renderer to read the program's output).
#ifndef HEXBENCH_JSON_READ_H_
#define HEXBENCH_JSON_READ_H_

#include <string>
#include <string_view>
#include <vector>

namespace hexbench {

/// One result table. A cell is the term's key (see TermKey in the
/// workloads: `<iri>`, `"lexical"`, `"lexical"@lang`,
/// `"lexical"^^<datatype>`, `_:label`), or "" when unbound.
struct SparqlRows {
  std::vector<std::string> vars;
  std::vector<std::vector<std::string>> rows;
};

/// Parses a SPARQL JSON results document; false when malformed.
bool ParseSparqlJson(std::string_view text, SparqlRows* out);

/// Reads an integer field of a flat JSON object such as {"inserted":3};
/// false when absent or malformed.
bool ReadJsonCount(std::string_view text, const std::string& field,
                   long long* value);

/// The integer of a COUNT cell key (`"7"^^<...#integer>`); -1 if not one.
long long CountCell(const std::string& key);

}  // namespace hexbench

#endif  // HEXBENCH_JSON_READ_H_
