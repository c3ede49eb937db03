# Convenience targets for the vapro reproduction.

GO ?= go

# The gauntlet's stages live in scripts/check.sh, each command and bound
# written once there (its header lists them, its comments say what each
# gates). `make check` runs every stage — exactly what CI runs — and
# each stage's target runs that stage alone (with the go on PATH; GO
# only reaches the targets below the list).
STAGES = build vet sortguard logguard hatchguard test race chaos shardfuzz fuzz bench-smoke bench-e2e record-analyze obs crash-replay

.PHONY: all check $(STAGES) cover bench experiments full clean

all: build vet test

check:
	./scripts/check.sh

$(STAGES):
	./scripts/check.sh $@

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem .

experiments:
	$(GO) run ./cmd/vaproexp all

# The paper-scale (2048-rank) validation: minutes and gigabytes.
full:
	VAPRO_FULL=1 $(GO) test ./internal/exp -run TestFullScale -v -timeout 30m

clean:
	rm -f cover.out
