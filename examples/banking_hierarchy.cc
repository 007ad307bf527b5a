// The paper's motivating example (Fig. 1): a bank estimates its overall
// holdings during banking hours. Accounts are grouped hierarchically —
// overall -> {company, preferred, personal}, company -> {com1, com2} —
// and the estimate declares a bound at every level:
//
//   BEGIN Query TIL 10000
//     LIMIT company 4000  LIMIT preferred 3000  LIMIT personal 3000
//     LIMIT com1 200 ...
//
// While tellers keep posting updates, the estimate proceeds and the
// inconsistency absorbed from each category stays within its own limit.
//
// Build & run:  ./build/examples/banking_hierarchy [--trace trace.json]
//
// --trace captures the whole run (spans, bound-check walks, conflict
// flows) as Chrome trace-event JSON; feed it to `esr audit` to
// recertify every hierarchical bound offline.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/database.h"
#include "obs/trace.h"

namespace {

constexpr esr::ObjectId kAccountsPerDivision = 25;

struct Bank {
  esr::Database db;
  esr::GroupId company, preferred, personal, com1, com2;
  std::vector<esr::ObjectId> all_accounts;

  static esr::ServerOptions Options() {
    esr::ServerOptions opt;
    opt.store.num_objects = 4 * kAccountsPerDivision;
    return opt;
  }

  Bank() : db(Options()) {
    esr::GroupSchema& schema = db.schema();
    company = *schema.AddGroup("company", esr::kRootGroup);
    preferred = *schema.AddGroup("preferred", esr::kRootGroup);
    personal = *schema.AddGroup("personal", esr::kRootGroup);
    com1 = *schema.AddGroup("com1", company);
    com2 = *schema.AddGroup("com2", company);
    // Accounts 0..24 in com1, 25..49 in com2, 50..74 preferred,
    // 75..99 personal.
    const esr::GroupId groups[] = {com1, com2, preferred, personal};
    for (esr::ObjectId id = 0; id < 4 * kAccountsPerDivision; ++id) {
      (void)schema.AssignObject(id, groups[id / kAccountsPerDivision]);
      (void)db.LoadValue(id, 8'000);
      all_accounts.push_back(id);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace trace.json]\n", argv[0]);
      return 1;
    }
  }
  if (!trace_path.empty()) {
    esr::GlobalTrace().Reset();
    esr::GlobalTrace().set_enabled(true);
  }

  Bank bank;
  esr::Session tellers = bank.db.CreateSession(1);
  esr::Session accounting = bank.db.CreateSession(2);

  // Tellers leave a few deposits pending in different categories.
  std::vector<esr::TxnHandle> pending;
  struct Deposit {
    esr::ObjectId account;
    esr::Value amount;
    const char* where;
  };
  const Deposit deposits[] = {
      {3, 150, "com1"}, {30, 900, "com2"}, {60, 700, "preferred"}};
  for (const Deposit& d : deposits) {
    esr::TxnHandle txn =
        tellers.Begin(esr::TxnType::kUpdate, esr::BoundSpec());
    const esr::OpResult r = txn.Read(d.account);
    if (!r.ok() || !txn.Write(d.account, r.value + d.amount).ok()) return 1;
    std::printf("pending deposit: $%lld into account %u (%s)\n",
                static_cast<long long>(d.amount), d.account, d.where);
    pending.push_back(txn);
  }

  // The overall estimate with the paper's hierarchical declaration.
  esr::BoundSpec bounds;
  bounds.SetTransactionLimit(10'000);
  bounds.SetLimit(bank.company, 4'000);
  bounds.SetLimit(bank.preferred, 3'000);
  bounds.SetLimit(bank.personal, 3'000);
  bounds.SetLimit(bank.com1, 200);

  std::printf("\nBEGIN Query TIL 10000, LIMIT company 4000, "
              "LIMIT preferred 3000, LIMIT personal 3000, LIMIT com1 200\n");
  const auto estimate = accounting.AggregateQuery(
      bank.all_accounts, esr::AggregateKind::kSum, bounds,
      /*max_restarts=*/3);
  if (estimate.ok()) {
    std::printf("overall estimate : $%.0f (imported $%.0f of "
                "inconsistency)\n",
                estimate->outcome.result, estimate->imported);
  } else {
    // The com1 deposit ($150) fits its $200 limit, so this should not
    // happen; a bigger com1 deposit would trip exactly that limit.
    std::printf("estimate rejected: %s\n",
                estimate.status().ToString().c_str());
  }

  // Tighten com1's limit below the pending deposit and watch the
  // category-level control reject the query even though the overall TIL
  // has plenty of headroom.
  bounds.SetLimit(bank.com1, 100);
  std::printf("\nretry with LIMIT com1 100 (pending com1 deposit is $150):\n");
  const auto rejected = accounting.AggregateQuery(
      bank.all_accounts, esr::AggregateKind::kSum, bounds,
      /*max_restarts=*/1);
  std::printf("estimate : %s\n",
              rejected.ok() ? "unexpectedly admitted"
                            : rejected.status().ToString().c_str());
  std::printf("group-level rejections so far: %lld\n",
              static_cast<long long>(
                  bank.db.metrics().CounterValue("abort.group_bound")));

  for (esr::TxnHandle& txn : pending) {
    if (!txn.Commit().ok()) return 1;
  }
  std::printf("\nall deposits committed; exact total now $%lld\n",
              static_cast<long long>(
                  bank.db.server().TotalValue()));

  if (!trace_path.empty()) {
    esr::GlobalTrace().set_enabled(false);
    const esr::Status s =
        esr::GlobalTrace().ExportChromeTraceToFile(trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 esr::GlobalTrace().size(), trace_path.c_str());
  }
  return 0;
}
