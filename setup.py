from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the compiled kernel when possible; osgkit falls back to pure Python."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"warning: compiled kernel skipped ({exc}); using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: {ext.name} skipped ({exc}); using pure-Python fallback")


def extensions():
    # one hand-written C source, compiled by the system compiler
    return [Extension("osgkit._kernel", ["src/osgkit/_kernelmodule.c"])]


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
