GO ?= go

.PHONY: check build vet test test-short bench bins clean

# The full verification gate: everything CI (and reviewers) should run.
# -shuffle=on randomises test order to flush hidden inter-test state.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) build -C bench -o /dev/null ./... && $(GO) vet -C bench ./... && $(GO) test -C bench ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# Skips the real-socket cluster tests (loopback TCP servers).
test-short:
	$(GO) test -race -short ./...

bench:
	$(GO) run ./cmd/detmt-bench -experiment all

# Build the command-line tools into ./bin.
bins:
	mkdir -p bin
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin
