from .cli import script

if __name__ == "__main__":
    raise SystemExit(script())
