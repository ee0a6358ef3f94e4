fn main() {
    print!("{}", bolt_bench::reproduce());
}
