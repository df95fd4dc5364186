// phase-throw fixtures. The fixture-relative path starts with
// src/runtime/, which switches the rule on: throwing kvstore accessors
// are banned inside the phase-DAG runtime, where a store fault must
// land as a typed PhaseResult the dag can retry or degrade on.

namespace fxphase {

struct Reply {
  int status;
};

void ingest_legacy(Reply r) {
  expect_ok(r);  // expect: phase-throw
}

void ingest_qualified(Reply r) {
  kvstore::expect_ok(r);  // expect: phase-throw
}

void partition_legacy() {
  throw UnavailableError("master list incomplete");  // expect: phase-throw
}

void partition_qualified() {
  throw kvstore::UnavailableError("shard gone");  // expect: phase-throw
}

// The job runtime's executor is single-threaded: src/runtime/ gets no
// raw-thread exemption.
void spawn_worker() {
  std::thread t;  // expect: raw-thread
}

// Traps: the tokens inside comments and string literals stay silent,
// and identifiers that merely contain the token do not match.
void traps() {
  // a comment saying expect_ok or UnavailableError is fine
  const char* doc = "expect_ok throws UnavailableError on failure";
  (void)doc;
  int expect_ok_count = 0;  // token must be identifier-delimited
  (void)expect_ok_count;
}

}  // namespace fxphase
